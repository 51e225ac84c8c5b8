# `cr stream`'s error paths (driven by the stream_errors CTest entry):
#
#   1. a feed error and a run error each print one "cr stream: " prefix
#      (the library's messages carry none of their own) and exit 1: a line
#      that does not parse ("1 x"), and a feed slot that is not ahead of the
#      simulation ("300 1" then "1 1");
#   2. conflicting flags exit 2 naming the conflict: an --overflow policy
#      that is neither block nor drop, --synth with --trace, and --restore
#      with --overflow=drop;
#   3. a drop-policy run on a one-slot ring exits 0, and the stderr summary
#      accounts for every synthetic event as applied or dropped.
#
# Each run gets a timeout so a regression fails instead of hanging.
#
# Expects -DCR=<cr binary> -DOUT=<scratch dir>.
foreach(var CR OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "stream_errors.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

# Runs `cr stream` with ARGN on `input`, expects exit `want_rc` and `want`
# in stderr; the stderr text is left in `stream_err`.
function(expect_stream want_rc want input)
  execute_process(
    COMMAND ${CR} stream ${ARGN}
    INPUT_FILE ${input}
    TIMEOUT 60
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL want_rc)
    message(FATAL_ERROR "cr stream ${ARGN} exited ${rc} (expected ${want_rc}):\n${err}")
  endif()
  string(FIND "${err}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "cr stream ${ARGN}: stderr lacks \"${want}\":\n${err}")
  endif()
  set(stream_err "${err}" PARENT_SCOPE)
endfunction()

# 1. Feed and run errors, one prefix each.
file(WRITE ${OUT}/malformed.txt "1 x\n")
expect_stream(1 "cr stream: malformed trace line \"1 x\"" ${OUT}/malformed.txt)
set(malformed_err "${stream_err}")
file(WRITE ${OUT}/behind.txt "300 1\n1 1\n")
expect_stream(1 "cr stream: feed slot 1 is not ahead of the simulation (at slot 300)"
  ${OUT}/behind.txt)
foreach(err IN ITEMS "${malformed_err}" "${stream_err}")
  string(FIND "${err}" "stream: stream:" doubled)
  if(NOT doubled EQUAL -1)
    message(FATAL_ERROR "cr stream doubled its error prefix:\n${err}")
  endif()
endforeach()

# 2. Conflicting flags.
expect_stream(2 "cr stream: --overflow must be block or drop (got \"bogus\")" /dev/null
  --synth=100 --overflow=bogus)
expect_stream(2 "cr stream: --synth and --trace are mutually exclusive" /dev/null
  --synth=100 --trace=${OUT}/behind.txt)
expect_stream(0 " events applied" /dev/null --synth=10 --window=100
  --checkpoint=${OUT}/run.snap)
if(NOT EXISTS ${OUT}/run.snap)
  message(FATAL_ERROR "cr stream --checkpoint wrote no ${OUT}/run.snap")
endif()
expect_stream(2 "cr stream: --restore requires --overflow=block" /dev/null
  --synth=10 --window=100 --restore=${OUT}/run.snap --overflow=drop)

# 3. Drops are counted, not lost: applied + dropped = events fed.
expect_stream(0 " dropped" /dev/null --synth=20000 --ring=1 --overflow=drop)
string(REGEX MATCH "([0-9]+) events applied, .* ([0-9]+) dropped" counts "${stream_err}")
if(NOT counts)
  message(FATAL_ERROR "cr stream --overflow=drop printed no applied/dropped counts:\n${stream_err}")
endif()
math(EXPR fed "${CMAKE_MATCH_1} + ${CMAKE_MATCH_2}")
if(NOT fed EQUAL 20000)
  message(FATAL_ERROR "applied ${CMAKE_MATCH_1} + dropped ${CMAKE_MATCH_2} != 20000 events:\n"
    "${stream_err}")
endif()
