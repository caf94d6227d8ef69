# Out-of-range integer flags of the replay example must be rejected with
# the usage message and exit status 1 — never narrowed to a wrapped value
# (--iters 4294967296 would run 0 iterations) or turned into an abort
# (--threads 3000000000 would fail the engine's num_threads CHECK).
#
#   cmake -DREPLAY=<path to replay> -P tests/replay_flag_range.cmake

if(NOT REPLAY)
  message(FATAL_ERROR "pass -DREPLAY=<path to the replay executable>")
endif()

set(failures 0)
# 2147483648 is INT_MAX + 1; 3000000000 wraps negative, 4294967296 to 0.
foreach(flag --threads --iters --max-days)
  foreach(value 2147483648 3000000000 4294967296)
    execute_process(COMMAND ${REPLAY} ${flag} ${value}
                    RESULT_VARIABLE status
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err
                    TIMEOUT 60)
    if(NOT status EQUAL 1 OR NOT err MATCHES "(^|\n)usage: replay")
      message(SEND_ERROR "replay ${flag} ${value}: exit '${status}', "
                         "stderr:\n${err}")
      math(EXPR failures "${failures} + 1")
    endif()
  endforeach()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} out-of-range flag(s) not rejected")
endif()
