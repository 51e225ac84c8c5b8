# Bench integer flags must be range-checked (driven by the
# bench_count_flags CTest entry): a --reps below 1, a negative or zero size,
# a size below the first one the bench's sweep runs, or a negative --seed
# exits 2 with a message naming the flag and the value it must take,
# instead of aborting on a CR_CHECK or an exception, writing a header-only
# CSV with exit 0, or running a seed wrapped to 2^64 - 5. A bench's own flags
# are rows of its ParamSchema, whose check prints `parameter "<flag>" must
# be <bound>` or `expects a uint`; --seed is the driver's own.
#
# Expects -DCR=<cr binary> and -DOUT=<scratch dir for the --csv files>.
if(NOT DEFINED CR OR NOT DEFINED OUT)
  message(FATAL_ERROR "bench_count_flags.cmake: -DCR=... and -DOUT=... are required")
endif()
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")

# Each case: "<bench>|<flag>|<bad value>"; every run is --quick with a CSV.
foreach(case
    "worstcase|reps|0"
    "worstcase|reps|-2"
    "scenario|n|-1"
    "scenario|horizon|0"
    "worstcase|max_exp|10"
    "energy|max_n|32"
    "baselines|max_n|16"
    "scenario|seed|-5")
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 bench)
  list(GET parts 1 flag)
  list(GET parts 2 value)
  set(csv "${OUT}/${bench}_${flag}.csv")
  execute_process(
    COMMAND ${CR} bench ${bench} --quick --threads=1 --${flag}=${value} --csv=${csv}
    TIMEOUT 60
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "cr bench ${bench} --${flag}=${value} exited ${rc} (expected 2):\n${err}")
  endif()
  if(flag STREQUAL "seed")
    set(expected "cr bench ${bench}: --seed must be >= 0, got ${value}")
  else()
    set(expected "cr bench ${bench}: parameter \"${flag}\" (must be >= [0-9]+|expects a uint), got \"${value}\"")
  endif()
  if(NOT err MATCHES "${expected}")
    message(FATAL_ERROR "cr bench ${bench} --${flag}=${value} did not name the flag and its bound:\n${err}")
  endif()
  if(EXISTS "${csv}")
    message(FATAL_ERROR "cr bench ${bench} --${flag}=${value} still wrote ${csv}")
  endif()
endforeach()
