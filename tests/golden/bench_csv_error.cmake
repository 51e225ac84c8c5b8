# `cr bench --csv` write failures must be loud (driven by the
# bench_csv_unwritable CTest entry), for a Table bench (lowerbound) and for
# latency, which streams its rows through CsvWriter:
#
#   1. a CSV path in a missing directory: stderr names the path and the OS
#      reason, the exit code is 2, and no file appears;
#   2. a write cut short by a file-size limit (`ulimit -f 1`, which a POSIX
#      shell counts in 512-byte blocks, with SIGXFSZ ignored so the write
#      fails with EFBIG instead of killing the bench): the same report and
#      exit code, and neither a truncated CSV nor a tmp file is left behind.
#      A suite cell would otherwise publish the truncated bytes as "ok".
#
# Small horizons keep both benches fast in Debug and coverage builds while
# their CSVs stay longer than the limit.
#
# Expects -DCR=<cr binary> -DOUT=<scratch dir>.
foreach(var CR OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_csv_error.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

# run_bench(<rc var> <err var> <csv path> <bench> <flags...>): the bench
# with `flags` and --csv=<csv path>, under the shell prefix in ${prefix}.
function(run_bench rc_var err_var path bench)
  execute_process(
    COMMAND ${prefix} ${CR} bench ${bench} --quick --reps=2 --threads=2 ${ARGN} --csv=${path}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  set(${rc_var} "${rc}" PARENT_SCOPE)
  set(${err_var} "${err}" PARENT_SCOPE)
endfunction()

function(expect_csv_failure path bench)
  run_bench(rc err ${path} ${bench} ${ARGN})
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "cr bench ${bench} --csv=${path} exited ${rc} (expected 2):\n${err}")
  endif()
  string(FIND "${err}" "cr bench ${bench}: cannot write ${path}: " at)
  if(at EQUAL -1)
    message(FATAL_ERROR "cr bench ${bench} did not name the unwritten CSV ${path}:\n${err}")
  endif()
  file(GLOB leftovers ${path} ${path}.tmp-*)
  if(leftovers)
    message(FATAL_ERROR "a failed CSV write left files behind: ${leftovers}")
  endif()
endfunction()

function(check_bench bench)
  set(prefix "")
  expect_csv_failure(${OUT}/no/such/dir/${bench}.csv ${bench} ${ARGN})

  # The limit must cut the CSV short: check the full one is longer.
  run_bench(rc err ${OUT}/${bench}_full.csv ${bench} ${ARGN})
  file(SIZE ${OUT}/${bench}_full.csv full_size)
  if(NOT rc EQUAL 0 OR full_size LESS_EQUAL 512)
    message(FATAL_ERROR "cr bench ${bench} exited ${rc} with a ${full_size}-byte CSV; the "
                        "short-write check needs one longer than 512 bytes:\n${err}")
  endif()
  # `exec "$0" "$@"` runs the bench under the limit with its arguments as
  # given. (`&&`, not `;`: a `;` would split the script as a cmake list.)
  set(prefix sh -c "trap '' XFSZ && ulimit -f 1 && exec \"$0\" \"$@\"")
  expect_csv_failure(${OUT}/${bench}.csv ${bench} ${ARGN})
endfunction()

check_bench(lowerbound --max_exp=20)
check_bench(latency --max_exp=12)
