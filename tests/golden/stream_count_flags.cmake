# `cr stream` count flags must be range-checked, not cast (driven by the
# stream_negative_count_flags CTest entry): a negative --ring, --synth,
# --window, --max_windows or --checkpoint_every exits 2 with a message
# naming the flag and the value it must take (the check of the bench's
# ParamSchema rows), instead of wrapping to 2^64-1 (an abort allocating the
# ring or the feed, a window that pads forever, a limit read as "never").
# Each run gets a timeout so a regression fails instead of hanging.
#
# Expects -DCR=<cr binary>.
if(NOT DEFINED CR)
  message(FATAL_ERROR "stream_count_flags.cmake: -DCR=... is required")
endif()

foreach(flag ring synth window max_windows checkpoint_every)
  set(feed --synth=100)
  if(flag STREQUAL "synth")
    set(feed "")
  endif()
  execute_process(
    COMMAND ${CR} stream ${feed} --${flag}=-1
    INPUT_FILE /dev/null
    TIMEOUT 20
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "cr stream --${flag}=-1 exited ${rc} (expected 2):\n${err}")
  endif()
  string(FIND "${err}" "cr bench stream: parameter \"${flag}\" expects a uint, got \"-1\"" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "cr stream --${flag}=-1 did not name the flag:\n${err}")
  endif()
endforeach()
