# Runs one figure program with --quick and compares its standard output,
# byte for byte, with the committed tests/figures/<name>.txt.
#
#   cmake -DPROGRAM=<binary> -DEXPECTED=<committed .txt> -DACTUAL=<output .txt>
#         -P check_figure.cmake
#
# A nonzero exit of the program (its --quick self-checks) fails the test as
# well.  When a change moves a figure on purpose, copy ACTUAL over EXPECTED
# in the same change and say which figure moved and why.
foreach(var PROGRAM EXPECTED ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_figure.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND ${PROGRAM} --quick
                OUTPUT_FILE ${ACTUAL}
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} --quick exited with status ${status}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED} ${ACTUAL}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "figure output moved: diff ${EXPECTED} ${ACTUAL}")
endif()
