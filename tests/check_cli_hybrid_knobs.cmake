# `wsel_cli hybrid` with an escalation knob out of its domain must
# fail before any cell runs: no error-profile calibration (which
# simulates detailed cells) and no BADCO sweep.  Invoked by the
# wsel_cli_hybrid_knobs ctest entry with -DCLI=<wsel_cli binary>
# -DWORK=<scratch directory>.

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
# An empty private cache: a valid run would calibrate a profile here.
set(ENV{WSEL_CACHE_DIR} ${WORK}/cache)

function(expect_refused what)
    execute_process(COMMAND ${CLI} hybrid --out ${WORK}/run
                            --cores 2 --insns 2000 --limit 4 ${ARGN}
                    WORKING_DIRECTORY ${WORK}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(rc EQUAL 0)
        message(FATAL_ERROR "wsel_cli hybrid ${ARGN} succeeded:\n"
                            "${out}\n${err}")
    endif()
    if(NOT err MATCHES "${what}")
        message(FATAL_ERROR "wsel_cli hybrid ${ARGN} did not name "
                            "the ${what}:\n${out}\n${err}")
    endif()
    if(out MATCHES "calibrating" OR EXISTS ${WORK}/cache/error_profile.bin
       OR EXISTS ${WORK}/run)
        message(FATAL_ERROR "wsel_cli hybrid ${ARGN} ran cells before "
                            "refusing:\n${out}\n${err}")
    endif()
endfunction()

expect_refused("budget fraction" --budget-frac 1.5)
expect_refused("budget fraction" --budget-frac -0.1)
expect_refused("quantile" --quantile 1)
expect_refused("quantile" --quantile 0)

file(REMOVE_RECURSE ${WORK})
