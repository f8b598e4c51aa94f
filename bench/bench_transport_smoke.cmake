# ctest bench_transport_smoke: write a small record, then --check it.
#
#   cmake -DBENCH=<bench_transport> -DOUT=<record.json> -P bench_transport_smoke.cmake
foreach(args
    "--particles;400;--repeats;1;--no-phases;--out;${OUT}"
    "--check;${OUT}")
  execute_process(COMMAND ${BENCH} ${args} RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "bench_transport ${args} exited with ${status}")
  endif()
endforeach()
