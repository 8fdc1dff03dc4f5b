# Run one bench with its default arguments and fail unless its stdout
# matches the committed golden file byte for byte.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DACTUAL=<file> \
#         -P compare_stdout.cmake
#
# On a mismatch the output is kept in ACTUAL for `diff -u`.

execute_process(COMMAND ${BENCH}
    OUTPUT_FILE ${ACTUAL}
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    ${GOLDEN} ${ACTUAL}
    RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR
        "${BENCH} output differs from ${GOLDEN}; see\n"
        "  diff -u ${GOLDEN} ${ACTUAL}")
endif()
