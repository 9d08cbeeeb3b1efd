# Round trip of a saved campaign through the CLI: `campaign --out`
# writes a campaign_v3 directory, `analyze` and `report` read it
# back, and `cache verify` passes it when cached and reports it
# CORRUPT (exit 1) once one of its shards is truncated.  Invoked by
# the wsel_cli_campaign_roundtrip ctest entry with
# -DCLI=<wsel_cli binary> -DWORK=<scratch directory>.

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
# BADCO models go to a private cache, never the user's.
set(ENV{WSEL_CACHE_DIR} ${WORK}/models)

function(run_cli expect_rc out_var)
    execute_process(COMMAND ${CLI} ${ARGN}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL expect_rc)
        message(FATAL_ERROR "wsel_cli ${ARGN} exited with '${rc}', "
                            "expected ${expect_rc}\n${out}\n${err}")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

set(camp ${WORK}/camp)
run_cli(0 out campaign --cores 2 --insns 5000 --limit 12
        --jobs 1 --out ${camp})
if(NOT EXISTS ${camp}/manifest.bin OR NOT EXISTS ${camp}/shard-000000.bin)
    message(FATAL_ERROR "campaign --out did not write a campaign_v3 "
                        "directory:\n${out}")
endif()
if(EXISTS ${camp}.partial)
    message(FATAL_ERROR "campaign left its checkpoint behind")
endif()

run_cli(0 out analyze --campaign ${camp})
if(NOT out MATCHES "workloads: 12 ")
    message(FATAL_ERROR "analyze did not read 12 workloads:\n${out}")
endif()
run_cli(0 out report --campaign ${camp} --out ${WORK}/r.md)
if(NOT EXISTS ${WORK}/r.md)
    message(FATAL_ERROR "report wrote no markdown:\n${out}")
endif()

# The same directory as a cached campaign.
set(cache ${WORK}/cache)
set(cached ${cache}/campaign_v3_cli)
file(MAKE_DIRECTORY ${cached})
file(COPY ${camp}/ DESTINATION ${cached})
run_cli(0 out cache verify --dir ${cache})
if(NOT out MATCHES "OK +[^\n]*campaign_v3_cli")
    message(FATAL_ERROR "cache verify did not pass the campaign:\n${out}")
endif()

# Cut one shard in half: verify must name the campaign CORRUPT.
set(shard ${cached}/shard-000000.bin)
file(SIZE ${shard} size)
math(EXPR half "${size} / 2")
execute_process(COMMAND head -c ${half} ${shard}
                OUTPUT_FILE ${shard}.cut
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "could not truncate ${shard}")
endif()
file(RENAME ${shard}.cut ${shard})
run_cli(1 out cache verify --dir ${cache})
if(NOT out MATCHES "CORRUPT [^\n]*campaign_v3_cli")
    message(FATAL_ERROR "cache verify missed the cut shard:\n${out}")
endif()

file(REMOVE_RECURSE ${WORK})
