# Golden gate for one example program: its stdout, run with default
# arguments, must equal the committed golden file byte for byte.
# Invoked by ctest as:
#   cmake -DEXAMPLE=<path-to-example> -DGOLDEN=<path-to-golden> \
#         -P example_golden.cmake

if(NOT DEFINED EXAMPLE OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "pass -DEXAMPLE=<example binary> -DGOLDEN=<golden file>")
endif()

execute_process(COMMAND ${EXAMPLE}
                OUTPUT_VARIABLE actual RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
          "${EXAMPLE} output differs from ${GOLDEN}:\n--- expected ---\n"
          "${expected}\n--- actual ---\n${actual}")
endif()
