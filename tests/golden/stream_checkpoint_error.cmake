# `cr stream` checkpoint failures must be loud (driven by the
# stream_checkpoint_unwritable CTest entry):
#
#   1. a checkpoint path in a missing directory: the run completes, stderr
#      names the path and the OS reason, the exit code is 2, and no file
#      appears;
#   2. a directory standing at the checkpoint path: renaming the blob over
#      it fails, which must be reported the same way and leave the
#      directory (the "previous checkpoint") untouched, with no tmp file
#      left behind.
#
# Expects -DCR=<cr binary> -DOUT=<scratch dir>.
foreach(var CR OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "stream_checkpoint_error.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

function(expect_checkpoint_failure path)
  execute_process(
    COMMAND ${CR} stream --synth=20000 --checkpoint=${path} --checkpoint_every=4096
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "cr stream --checkpoint=${path} exited ${rc} (expected 2):\n${err}")
  endif()
  string(FIND "${err}" "cr stream: checkpoint ${path}: " at)
  if(at EQUAL -1)
    message(FATAL_ERROR "cr stream did not name the failed checkpoint ${path}:\n${err}")
  endif()
endfunction()

expect_checkpoint_failure(${OUT}/no/such/dir/x.snap)
if(EXISTS ${OUT}/no)
  message(FATAL_ERROR "a failed checkpoint created ${OUT}/no")
endif()

file(MAKE_DIRECTORY ${OUT}/taken.snap)
file(WRITE ${OUT}/taken.snap/keep "previous\n")
expect_checkpoint_failure(${OUT}/taken.snap)
file(READ ${OUT}/taken.snap/keep kept)
if(NOT kept STREQUAL "previous\n")
  message(FATAL_ERROR "a failed checkpoint disturbed what stood at its path")
endif()
file(GLOB leftovers ${OUT}/taken.snap.tmp-*)
if(leftovers)
  message(FATAL_ERROR "a failed checkpoint left tmp files behind: ${leftovers}")
endif()
