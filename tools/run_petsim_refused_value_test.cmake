# CTest script (run via cmake -P): petsim must turn a value the library
# refuses into "petsim: <what>" and exit 2, not abort on an uncaught
# PreconditionError.  -DPETSIM names the binary.

execute_process(COMMAND "${PETSIM}" plan --eps=10 --delta=0.05
                RESULT_VARIABLE rc ERROR_VARIABLE err TIMEOUT 60)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "petsim plan --eps=10: exit '${rc}', expected 2")
endif()
if(NOT err MATCHES "^petsim: ")
  message(FATAL_ERROR "petsim plan --eps=10: stderr '${err}' lacks 'petsim: '")
endif()
