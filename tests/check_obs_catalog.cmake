# Fails when an instrument registered in kCatalog (src/obs/metrics.cc)
# is missing from the catalog table in docs/OBSERVABILITY.md.
# Invoked by the obs_catalog_documented ctest entry with
# -DCATALOG=<src/obs/metrics.cc> -DDOC=<docs/OBSERVABILITY.md>.
#
# Each catalog entry is a `{"name", 'kind'},` line; the doc must
# mention every name in backticks.

file(READ ${CATALOG} source)
string(FIND "${source}" "kCatalog[] = {" at)
if(at EQUAL -1)
    message(FATAL_ERROR "no kCatalog array in ${CATALOG}")
endif()
string(SUBSTRING "${source}" ${at} -1 source)
string(FIND "${source}" "};" end)
string(SUBSTRING "${source}" 0 ${end} source)
string(REGEX MATCHALL "{\"[a-z0-9_.]+\", '[cgh]'}" entries
       "${source}")
list(LENGTH entries count)
if(count EQUAL 0)
    message(FATAL_ERROR "kCatalog in ${CATALOG} parsed as empty")
endif()

file(READ ${DOC} doc)
set(missing "")
foreach(entry IN LISTS entries)
    string(REGEX REPLACE "{\"([^\"]+)\".*" "\\1" name "${entry}")
    string(FIND "${doc}" "`${name}`" hit)
    if(hit EQUAL -1)
        list(APPEND missing ${name})
    endif()
endforeach()
if(missing)
    string(REPLACE ";" "\n  " missing "${missing}")
    message(FATAL_ERROR
        "instruments in kCatalog but not in ${DOC}:\n  ${missing}\n"
        "Add a row for each to the catalog table.")
endif()
message(STATUS "all ${count} kCatalog instruments documented")
