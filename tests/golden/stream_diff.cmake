# Golden kill/restore driver for `cr stream` (determinism rule 8):
#
#   1. run the fixed trace end-to-end; the JSONL must byte-match the
#      committed golden file (output stability across platforms/reruns);
#   2. run the same trace with --max_windows=4, cutting a checkpoint at the
#      stop (the simulated kill);
#   3. restore the checkpoint and re-feed the same trace; the concatenated
#      head+tail output must byte-match the golden too — restore-then-
#      continue is indistinguishable from never having stopped.
#
# With -DSTDIN=ON every run reads the trace on standard input (`--trace=-`,
# the default feed) instead of by path, and must print the same bytes.
#
# Invoked by CTest (see tests/CMakeLists.txt, labels `golden;stream`) as
#   cmake -DCR=<cr binary> -DTRACE=<stream_trace.txt> -DGOLDEN=<stream_quick.jsonl>
#         -DOUT=<outdir/prefix> [-DSTDIN=ON] -P stream_diff.cmake
#
# To regenerate after an intentional engine/metrics change:
#   ./build/src/cr stream --trace=tests/golden/stream_trace.txt --window=256 --seed=5 \
#       > tests/golden/stream_quick.jsonl
foreach(var CR TRACE GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "stream_diff.cmake: -D${var}=... is required")
  endif()
endforeach()

set(flags --window=256 --seed=5)
if(STDIN)
  set(feed INPUT_FILE ${TRACE})
else()
  set(feed)
  list(APPEND flags --trace=${TRACE})
endif()

# 1. Uninterrupted run.
execute_process(
  COMMAND ${CR} stream ${flags}
  ${feed}
  RESULT_VARIABLE run_rc
  OUTPUT_FILE ${OUT}_full.jsonl
  ERROR_QUIET)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "stream golden: full run exited with ${run_rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}_full.jsonl ${GOLDEN}
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
    "stream golden mismatch: ${OUT}_full.jsonl differs from ${GOLDEN}.\n"
    "If the change is intentional, regenerate with:\n"
    "  ${CR} stream --trace=${TRACE} --window=256 --seed=5 > ${GOLDEN}")
endif()

# 2. Kill after 4 windows, checkpointing at the stop.
execute_process(
  COMMAND ${CR} stream ${flags} --max_windows=4 --checkpoint=${OUT}_head.snap
  ${feed}
  RESULT_VARIABLE head_rc
  OUTPUT_FILE ${OUT}_head.jsonl
  ERROR_QUIET)
if(NOT head_rc EQUAL 0)
  message(FATAL_ERROR "stream golden: head run exited with ${head_rc}")
endif()

# 3. Restore and run the tail to EOF on the same trace.
execute_process(
  COMMAND ${CR} stream ${flags} --restore=${OUT}_head.snap
  ${feed}
  RESULT_VARIABLE tail_rc
  OUTPUT_FILE ${OUT}_tail.jsonl
  ERROR_QUIET)
if(NOT tail_rc EQUAL 0)
  message(FATAL_ERROR "stream golden: restored tail run exited with ${tail_rc}")
endif()

file(READ ${OUT}_head.jsonl head_text)
file(READ ${OUT}_tail.jsonl tail_text)
file(WRITE ${OUT}_spliced.jsonl "${head_text}${tail_text}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}_spliced.jsonl ${GOLDEN}
  RESULT_VARIABLE splice_rc)
if(NOT splice_rc EQUAL 0)
  message(FATAL_ERROR
    "stream kill/restore mismatch: head (${OUT}_head.jsonl) + restored tail "
    "(${OUT}_tail.jsonl) does not reproduce the uninterrupted output ${GOLDEN} — "
    "determinism rule 8 is broken.")
endif()
