# `cr version` provenance (driven by the cr_version CTest entry): the text
# form runs, and `--json` is schema "cr-version/1" and carries the four keys
# CI reads, with the source digest (the CellCache key component) as 16 hex
# digits.
#
# Expects -DCR=<cr binary>.
if(NOT DEFINED CR)
  message(FATAL_ERROR "version_json.cmake: -DCR=... is required")
endif()

execute_process(COMMAND ${CR} version RESULT_VARIABLE rc OUTPUT_VARIABLE text)
if(NOT rc EQUAL 0 OR NOT text MATCHES "source_digest: +[0-9a-f]+")
  message(FATAL_ERROR "cr version exited ${rc}:\n${text}")
endif()

execute_process(COMMAND ${CR} version --json RESULT_VARIABLE rc OUTPUT_VARIABLE json)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cr version --json exited ${rc}:\n${json}")
endif()
if(NOT json MATCHES "^{\n  \"schema\": \"cr-version/1\",\n")
  message(FATAL_ERROR "cr version --json does not start with its schema:\n${json}")
endif()
foreach(key git_sha build source_digest cxx)
  if(NOT json MATCHES "\"${key}\": ")
    message(FATAL_ERROR "cr version --json has no \"${key}\":\n${json}")
  endif()
endforeach()
if(NOT json MATCHES "\"source_digest\": \"[0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f]\"")
  message(FATAL_ERROR "cr version --json: source_digest is not 16 hex digits:\n${json}")
endif()
