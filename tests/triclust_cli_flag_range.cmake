# Out-of-range flags of the triclust_cli example must be rejected with the
# usage message and exit status 1 — never narrowed to a wrapped iteration
# count (--iters 2147483648 would abort on the solver's max_iterations
# CHECK), turned into an abort (--seed-fraction 1.5 fails the sampler's
# fraction CHECK), or silently accepted (--seed-fraction -0.5 ran an
# unguided fit).
#
#   cmake -DCLI=<path to triclust_cli> -DOUT=<scratch prefix> \
#         -P tests/triclust_cli_flag_range.cmake

if(NOT CLI)
  message(FATAL_ERROR "pass -DCLI=<path to the triclust_cli executable>")
endif()
if(NOT OUT)
  message(FATAL_ERROR "pass -DOUT=<prefix for any files a run writes>")
endif()

# 2147483648 is INT_MAX + 1; 3000000000 wraps negative, 4294967296 to 0.
# The --seed-fraction cases cap --iters at 1 so that a binary which wrongly
# accepts them finishes quickly (and fails here on its exit status).
set(cases
    "--iters 2147483648"
    "--iters 3000000000"
    "--iters 4294967296"
    "--iters 1 --seed-fraction 1.5"
    "--iters 1 --seed-fraction -0.5"
    "--iters 1 --seed-fraction nan")
set(failures 0)
foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(COMMAND ${CLI} ${args} --output ${OUT}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT status EQUAL 1 OR NOT err MATCHES "(^|\n)usage: triclust_cli")
    message(SEND_ERROR "triclust_cli ${case}: exit '${status}', "
                       "stderr:\n${err}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} out-of-range flag(s) not rejected")
endif()
