# Fails unless every markdown row that bench_table2_loc prints appears
# verbatim, as a whole line, in EXPERIMENTS.md. Usage:
#   cmake -DBENCH=<bench_table2_loc binary> -DROOT=<repository root> -P check_table2.cmake

execute_process(COMMAND "${BENCH}" WORKING_DIRECTORY "${ROOT}"
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_table2_loc exited with ${rc}")
endif()
file(READ "${ROOT}/EXPERIMENTS.md" doc)

# Walk the output line by line without CMake lists: a row may hold a ';'.
set(rows 0)
set(missing 0)
string(FIND "${out}" "\n" nl)
while(NOT nl EQUAL -1)
  string(SUBSTRING "${out}" 0 ${nl} line)
  math(EXPR next "${nl} + 1")
  string(SUBSTRING "${out}" ${next} -1 out)
  if(line MATCHES "^\\|")
    math(EXPR rows "${rows} + 1")
    string(FIND "${doc}" "\n${line}\n" at)
    if(at EQUAL -1)
      message(SEND_ERROR "EXPERIMENTS.md lacks the row: ${line}")
      math(EXPR missing "${missing} + 1")
    endif()
  endif()
  string(FIND "${out}" "\n" nl)
endwhile()

if(rows EQUAL 0)
  message(FATAL_ERROR "bench_table2_loc printed no table rows")
endif()
if(missing GREATER 0)
  message(FATAL_ERROR "${missing} of ${rows} Table 2 rows are missing from EXPERIMENTS.md; "
                      "paste the bench's table there")
endif()
message(STATUS "all ${rows} Table 2 rows match EXPERIMENTS.md")
