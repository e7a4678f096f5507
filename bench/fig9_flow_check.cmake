# Runs bench_fig9_slack_buffer and checks its flow-control tally: STOP and
# GO transitions alternate (refresh STOPs are not transitions), so both
# counts are positive and differ by at most one.
#
#   cmake -DBENCH=build/bench/bench_fig9_slack_buffer -P bench/fig9_flow_check.cmake
execute_process(COMMAND "${BENCH}" OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
if(NOT out MATCHES "STOP transitions: ([0-9]+), GO transitions: ([0-9]+)")
  message(FATAL_ERROR "no STOP/GO tally in the output of ${BENCH}")
endif()
set(stops ${CMAKE_MATCH_1})
set(gos ${CMAKE_MATCH_2})
math(EXPR diff "${stops} - ${gos}")
if(stops EQUAL 0 OR gos EQUAL 0 OR diff GREATER 1 OR diff LESS -1)
  message(FATAL_ERROR "STOP transitions ${stops} and GO transitions ${gos} "
                      "do not alternate")
endif()
message(STATUS "STOP transitions ${stops}, GO transitions ${gos}")
