# Build-time provenance: writes the source revision and a dirty flag
# (non-empty `git status --porcelain`) into OUT. Outside a git checkout
# both read "unknown". The header is rewritten only when its content
# changes, so an unchanged tree does not trigger a recompile.
#
#   cmake -DREPO=<repo root> -DOUT=<header> -P provenance.cmake
set(rev "unknown")
set(dirty "unknown")
execute_process(
    COMMAND git rev-parse --short=12 HEAD
    WORKING_DIRECTORY "${REPO}"
    RESULT_VARIABLE rev_status
    OUTPUT_VARIABLE rev_out
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET)
if(rev_status EQUAL 0 AND NOT rev_out STREQUAL "")
    set(rev "${rev_out}")
    execute_process(
        COMMAND git status --porcelain
        WORKING_DIRECTORY "${REPO}"
        RESULT_VARIABLE status_status
        OUTPUT_VARIABLE status_out
        ERROR_QUIET)
    if(status_status EQUAL 0)
        if(status_out STREQUAL "")
            set(dirty "0")
        else()
            set(dirty "1")
        endif()
    endif()
endif()

set(content "#define HDCPS_E2E_GIT_REV \"${rev}\"\n#define HDCPS_E2E_GIT_DIRTY \"${dirty}\"\n")
set(old "")
if(EXISTS "${OUT}")
    file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL content)
    file(WRITE "${OUT}" "${content}")
endif()
