# A population whose DRRIP and LRU IPCs agree on every workload: the
# pair's d(w) are all zero, so its cv is 0/0.  `population` and
# `analyze` must still exit 0, print every pair, and show "-" for the
# undefined eq. 8 sample size.  Invoked by the wsel_cli_zero_pair
# ctest entry with -DCLI=<wsel_cli binary> -DWORK=<scratch directory>.

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
# BADCO models go to a private cache, never the user's.
set(ENV{WSEL_CACHE_DIR} ${WORK}/models)

function(run_cli out_var)
    execute_process(COMMAND ${CLI} ${ARGN}
                    WORKING_DIRECTORY ${WORK}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "wsel_cli ${ARGN} exited with '${rc}'\n"
                            "${out}\n${err}")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

set(pop ${WORK}/P)
run_cli(out population --out ${pop} --cores 4 --insns 5000
        --first 4096 --limit 6 --shard-size 10 --jobs 1)
foreach(pair LRU>RND LRU>FIFO LRU>DIP LRU>DRRIP RND>FIFO RND>DIP
             RND>DRRIP FIFO>DIP FIFO>DRRIP DIP>DRRIP)
    if(NOT out MATCHES "\n${pair} ")
        message(FATAL_ERROR "population printed no ${pair} row:\n${out}")
    endif()
endforeach()
if(NOT out MATCHES "\nLRU>DRRIP [^\n]* nan +nan +- ")
    message(FATAL_ERROR "LRU>DRRIP is not the degenerate pair "
                        "(cv nan, eq. 8 '-'):\n${out}")
endif()
if(NOT out MATCHES "cells simulated")
    message(FATAL_ERROR "population stopped before its summary:\n${out}")
endif()

run_cli(out analyze --campaign ${pop} --x DRRIP --y LRU)
if(NOT out MATCHES "eq.\\(8\\) random-sample size: -\n")
    message(FATAL_ERROR "analyze gave an eq. 8 size for cv=nan:\n${out}")
endif()

file(REMOVE_RECURSE ${WORK})
