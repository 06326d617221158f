# Runs the bench binary BENCH with a flag it does not know. Passes only
# when it exits 2 and prints its usage to stderr.
#
#   cmake -DBENCH=<path> -P expect_usage_error.cmake
execute_process(COMMAND ${BENCH} --no-such-flag
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR
        "expected exit status 2 for an unknown flag, got '${rc}'\n${out}${err}")
endif()
if(NOT err MATCHES "unknown flag '--no-such-flag'" OR NOT err MATCHES "usage:")
    message(FATAL_ERROR "expected the usage on stderr, got:\n${err}")
endif()
