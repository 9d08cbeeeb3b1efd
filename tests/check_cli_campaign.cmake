# Round trip of a saved campaign through the CLI: `campaign --out`
# writes a campaign_v3 directory, `analyze` and `report` read it
# back, and `cache verify` passes it when cached and reports it
# CORRUPT (exit 1) once one of its shards is truncated.  A BADCO
# model with one flipped bit is CORRUPT too; once quarantined, the
# same campaign rebuilds it and writes the same shards and manifest.  An --out
# that names an existing file is refused before any cell runs, so no
# checkpoint directory appears, and so is a numeric option that is
# not a whole unsigned decimal (`--resume yes`, `--jobs 4x`): the
# saved campaign and its checkpoint stay untouched.  Invoked by
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

# A file in the way of --out: refused up front, nothing simulated.
set(blocked ${WORK}/old.csv)
file(WRITE ${blocked} "rank,policy,ipc\n")
execute_process(COMMAND ${CLI} campaign --cores 2 --insns 5000
                        --limit 12 --jobs 1 --out ${blocked}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
    message(FATAL_ERROR "campaign --out over a file succeeded:\n${out}")
endif()
if(NOT err MATCHES "a file is in the way")
    message(FATAL_ERROR "campaign --out over a file gave the wrong "
                        "error:\n${err}")
endif()
if(EXISTS ${blocked}.partial)
    message(FATAL_ERROR "campaign --out over a file simulated before "
                        "refusing it (left ${blocked}.partial)")
endif()
file(READ ${blocked} kept)
if(NOT kept STREQUAL "rank,policy,ipc\n")
    message(FATAL_ERROR "campaign --out over a file changed the file")
endif()

# Malformed numbers: refused up front, nothing simulated or removed.
file(SHA256 ${camp}/manifest.bin manifest_sum)
file(MAKE_DIRECTORY ${camp}.partial)
file(WRITE ${camp}.partial/keep "checkpoint\n")
foreach(bad "resume;yes" "jobs;4x")
    list(GET bad 0 key)
    list(GET bad 1 value)
    execute_process(COMMAND ${CLI} campaign --cores 2 --insns 5000
                            --limit 12 --jobs 1 --out ${camp}
                            --${key} ${value}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(rc EQUAL 0)
        message(FATAL_ERROR "campaign --${key} ${value} succeeded:\n${out}")
    endif()
    if(NOT err MATCHES "--${key} wants an unsigned integer")
        message(FATAL_ERROR "campaign --${key} ${value} gave the wrong "
                            "error:\n${err}")
    endif()
    if(NOT EXISTS ${camp}.partial/keep)
        message(FATAL_ERROR "campaign --${key} ${value} removed the "
                            "checkpoint before refusing the option")
    endif()
    file(SHA256 ${camp}/manifest.bin sum)
    if(NOT sum STREQUAL manifest_sum)
        message(FATAL_ERROR "campaign --${key} ${value} rewrote the "
                            "saved campaign")
    endif()
endforeach()
file(REMOVE_RECURSE ${camp}.partial)

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

# Flip one bit in the middle of one cached BADCO model.
set(models ${WORK}/models)
file(GLOB model_files ${models}/badco_*.bin)
list(SORT model_files)
list(GET model_files 0 model)
file(SIZE ${model} size)
math(EXPR at "${size} / 2")
file(READ ${model} byte OFFSET ${at} LIMIT 1 HEX)
math(EXPR v "0x${byte} ^ 4")
# printf's octal escape writes any byte value portably.
math(EXPR octal "(${v} / 64) * 100 + (${v} / 8 % 8) * 10 + ${v} % 8")
execute_process(COMMAND printf "\\${octal}"
                OUTPUT_FILE ${WORK}/byte.bin
                RESULT_VARIABLE rc)
if(rc EQUAL 0)
    execute_process(COMMAND dd if=${WORK}/byte.bin of=${model} bs=1
                            seek=${at} conv=notrunc
                    RESULT_VARIABLE rc
                    OUTPUT_QUIET ERROR_QUIET)
endif()
file(READ ${model} got OFFSET ${at} LIMIT 1 HEX)
if(NOT rc EQUAL 0 OR got STREQUAL byte)
    message(FATAL_ERROR "could not flip a bit of ${model}")
endif()

run_cli(1 out cache verify --dir ${models})
string(FIND "${out}" "CORRUPT ${model}\n" at_line)
if(at_line EQUAL -1)
    message(FATAL_ERROR "cache verify missed the flipped bit in "
                        "${model}:\n${out}")
endif()
run_cli(1 out cache verify --dir ${models} --quarantine 1)
if(EXISTS ${model} OR NOT EXISTS ${model}.corrupt)
    message(FATAL_ERROR "cache verify --quarantine 1 did not move "
                        "${model} aside:\n${out}")
endif()

# The same campaign again: the model is rebuilt, and the results
# match the first run's.
set(camp2 ${WORK}/camp2)
run_cli(0 out campaign --cores 2 --insns 5000 --limit 12
        --jobs 1 --out ${camp2})
if(NOT EXISTS ${model})
    message(FATAL_ERROR "the rerun did not rebuild ${model}")
endif()
run_cli(0 out cache verify --dir ${models})
file(GLOB shards RELATIVE ${camp} ${camp}/shard-*.bin)
file(GLOB shards2 RELATIVE ${camp2} ${camp2}/shard-*.bin)
if(NOT shards STREQUAL shards2)
    message(FATAL_ERROR "the rerun wrote shards '${shards2}', the "
                        "first run '${shards}'")
endif()
foreach(s ${shards})
    file(SHA256 ${camp}/${s} want)
    file(SHA256 ${camp2}/${s} have)
    if(NOT want STREQUAL have)
        message(FATAL_ERROR "the rerun's ${s} differs from the "
                            "first run's")
    endif()
endforeach()
# The manifest matches too, except for the run's wall clock and the
# checksum over it: simSeconds is the f64 at byte 41 (after the
# 12-byte header, the fingerprint, the simulator "badco", the core
# count and the slice length), hex digits 82 to 97.
file(READ ${camp}/manifest.bin want HEX)
file(READ ${camp2}/manifest.bin have HEX)
string(LENGTH "${want}" hex_len)
math(EXPR tail_len "${hex_len} - 98 - 16")
foreach(m want have)
    string(SUBSTRING "${${m}}" 0 82 head)
    string(SUBSTRING "${${m}}" 98 ${tail_len} tail)
    set(${m} "${head}${tail}")
endforeach()
if(NOT want STREQUAL have)
    message(FATAL_ERROR "the rerun's manifest differs from the first "
                        "run's beyond its wall clock")
endif()

file(REMOVE_RECURSE ${WORK})
