# Runs pfairsim with the arguments that follow the script path and
# requires exit code 2 and stderr matching PATTERN.
# Invoked from tests/CMakeLists.txt as
#   cmake -DPFAIRSIM=... -DPATTERN=... [-DNEEDS=PATH] -P <this> ARGS...
# With NEEDS set and that path missing, the test reports SKIPPED.
if(DEFINED NEEDS AND NOT EXISTS "${NEEDS}")
  message("SKIPPED: ${NEEDS} does not exist on this system")
  return()
endif()

# Everything after "-P <script>" is pfairsim's command line.
set(args)
set(seen_p FALSE)
set(seen_script FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  set(a "${CMAKE_ARGV${i}}")
  if(seen_script)
    list(APPEND args "${a}")
  elseif(seen_p)
    set(seen_script TRUE)
  elseif(a STREQUAL "-P")
    set(seen_p TRUE)
  endif()
endforeach()

execute_process(COMMAND ${PFAIRSIM} ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "pfairsim ${args}: exit ${rc}, want 2\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${PATTERN}")
  message(FATAL_ERROR "pfairsim ${args}: stderr does not match "
                      "'${PATTERN}':\n${err}")
endif()
