# A command refuses any option it does not take before it builds a
# model or runs a cell: `population` with the retired flush-size
# option must exit non-zero, name the option, and leave no
# population.cell run behind — in each of population's modes, as
# well as in the commands they forward to.  The population.cell kill
# point is armed, so a run that reached a cell would die by SIGKILL
# instead of exiting 1.  Invoked by the wsel_cli_unknown_option
# ctest entry with -DCLI=<wsel_cli binary> -DWORK=<scratch directory>.

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
# An empty private cache: a run that built a model would leave it here.
set(ENV{WSEL_CACHE_DIR} ${WORK}/cache)
set(ENV{WSEL_KILL_POINT} population.cell:1)

function(expect_refused option)
    execute_process(COMMAND ${CLI} ${ARGN}
                    WORKING_DIRECTORY ${WORK}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR "wsel_cli ${ARGN} exited with '${rc}', "
                            "not 1:\n${out}\n${err}")
    endif()
    if(NOT err MATCHES "does not take --${option}")
        message(FATAL_ERROR "wsel_cli ${ARGN} did not name "
                            "--${option}:\n${out}\n${err}")
    endif()
    if(EXISTS ${WORK}/cache OR EXISTS ${WORK}/run)
        message(FATAL_ERROR "wsel_cli ${ARGN} built a model or ran "
                            "cells before refusing:\n${out}\n${err}")
    endif()
endfunction()

set(run --out ${WORK}/run --cores 2 --insns 2000 --limit 4)
# The retired flush-size option.
set(retired batch-cells)
set(bad --${retired} 8)
expect_refused(${retired} population ${run} ${bad})
expect_refused(${retired} population ${run} --sequential 1
               --policies DIP,LRU ${bad})
expect_refused(${retired} population ${run} --hybrid 1
               --policies DIP,LRU ${bad})
expect_refused(${retired} population ${run} --distributed 1 ${bad})
expect_refused(${retired} adaptive ${run} ${bad})
expect_refused(${retired} hybrid ${run} ${bad})
# A mode flag is population's own: the command it forwards to does
# not take it.
expect_refused(sequential hybrid ${run} --sequential 1)
expect_refused(bogus-option confidence --campaign ${WORK}/none
               --bogus-option 1)
expect_refused(batch serve submit --socket ${WORK}/none.sock
               --batch 8)

file(REMOVE_RECURSE ${WORK})
