# CTest script (run via cmake -P): petd must refuse a flag value that
# does not parse or that the service's checks reject, exiting 2 before it
# creates its socket.  -DPETD names the binary, -DWORK_DIR a scratch
# directory; the socket path is relative to it so it stays short.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(flag --tree-height=1 --max-inflight=abc)
  execute_process(COMMAND "${PETD}" --socket=petd.sock --quiet ${flag}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc TIMEOUT 30)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "petd ${flag}: exit '${rc}', expected 2")
  endif()
  if(EXISTS "${WORK_DIR}/petd.sock")
    message(FATAL_ERROR "petd ${flag} left its socket file behind")
  endif()
endforeach()
