# Runs BIN with the space-separated ARGS and requires a non-zero exit
# whose output names every design on the "threaded designs:" line of
# `CLI --list`:
#   cmake -DCLI=<hdcps_cli> -DBIN=<binary> "-DARGS=<args>" -P <this file>

execute_process(COMMAND ${CLI} --list OUTPUT_VARIABLE list)
string(REGEX MATCH "threaded designs:[^\n]*" line "${list}")
string(REPLACE "threaded designs:" "" line "${line}")
separate_arguments(names UNIX_COMMAND "${line}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args} OUTPUT_VARIABLE out
                ERROR_VARIABLE err RESULT_VARIABLE rc)
if(rc EQUAL 0 OR NOT names)
    message(FATAL_ERROR "exit ${rc}, designs '${names}': ${out}${err}")
endif()
foreach(name IN LISTS names)
    string(FIND "${out}${err}" "${name}" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR "error does not name '${name}': ${out}${err}")
    endif()
endforeach()
