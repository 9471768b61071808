# Perf-regression gate over bench/simspeed's serial rows: fails when any
# serial-loop cell's rounds_per_sec drops more than 10% below the checked-in
# floor in simspeed_baseline.json.
#
# Rows from the device-jobs sweep (the ones carrying a "device_jobs" key)
# are gated against their serial twin instead: a row whose wall_ms exceeds
# 1.5x the same cell's device_jobs = 1 row fails, but only when the JSON's
# host_cores covers the row's device_jobs.  On fewer cores the jobs share
# cores and speculation is expected to trail the serial loop.
#
# The baseline floors are ~1/3 of a quiet single-core run, so tripping this
# gate means the serial hot path got multiple times slower (e.g. speculation
# bookkeeping leaking into the GPUSTM_DEVICE_JOBS=1 path), not that the CI
# machine had a noisy neighbour.
#
# Usage:
#   cmake -DJSON=<path/to/BENCH_simspeed.json>
#         -DBASELINE=<path/to/simspeed_baseline.json>
#         -P CheckSimspeedRegression.cmake

if(NOT JSON OR NOT BASELINE)
  message(FATAL_ERROR "JSON and BASELINE are required")
endif()
if(NOT EXISTS "${JSON}")
  message(FATAL_ERROR "measured bench output not found: ${JSON}")
endif()

file(READ "${JSON}" MEASURED)
file(READ "${BASELINE}" FLOORS)

string(JSON NUM_FLOORS LENGTH "${FLOORS}" rows)
string(JSON NUM_MEASURED LENGTH "${MEASURED}" rows)
math(EXPR LAST_FLOOR "${NUM_FLOORS} - 1")
math(EXPR LAST_MEASURED "${NUM_MEASURED} - 1")

set(FAILED 0)
foreach(FI RANGE ${LAST_FLOOR})
  string(JSON WL GET "${FLOORS}" rows ${FI} workload)
  string(JSON VAR GET "${FLOORS}" rows ${FI} variant)
  string(JSON FLOOR GET "${FLOORS}" rows ${FI} min_rounds_per_sec)

  # Find the matching serial row (no "device_jobs" key) in the measurement.
  set(FOUND 0)
  foreach(MI RANGE ${LAST_MEASURED})
    string(JSON MWL GET "${MEASURED}" rows ${MI} workload)
    string(JSON MVAR GET "${MEASURED}" rows ${MI} variant)
    string(JSON DEVJOBS ERROR_VARIABLE NOTSERIAL
           GET "${MEASURED}" rows ${MI} device_jobs)
    if(MWL STREQUAL WL AND MVAR STREQUAL VAR AND NOT NOTSERIAL STREQUAL
       "NOTFOUND")
      # device_jobs lookup errored => the key is absent => a serial row.
      set(FOUND 1)
      string(JSON RPS GET "${MEASURED}" rows ${MI} rounds_per_sec)
      string(JSON OK GET "${MEASURED}" rows ${MI} ok)
      if(NOT OK STREQUAL "ON" AND NOT OK STREQUAL "true")
        message(SEND_ERROR "simspeed cell ${WL}/${VAR} did not verify")
        set(FAILED 1)
      endif()
      # Trip when measured < 90% of the floor.
      math(EXPR GATE "${FLOOR} * 9 / 10")
      if(RPS LESS GATE)
        message(SEND_ERROR
          "perf regression: ${WL}/${VAR} serial throughput "
          "${RPS} rounds/sec is below 90% of the baseline floor ${FLOOR} "
          "(gate ${GATE}); if the slowdown is intended, refresh "
          "bench/simspeed_baseline.json")
        set(FAILED 1)
      else()
        message(STATUS
          "${WL}/${VAR}: ${RPS} rounds/sec >= gate ${GATE} (floor ${FLOOR})")
      endif()
      break()
    endif()
  endforeach()
  if(NOT FOUND)
    message(SEND_ERROR
      "baseline row ${WL}/${VAR} has no serial row in ${JSON}; did the "
      "simspeed scenario table change without refreshing the baseline?")
    set(FAILED 1)
  endif()
endforeach()

# Whole milliseconds of a "%.6g" wall_ms field.
function(wall_ms_int VALUE OUTVAR)
  if(NOT VALUE MATCHES "^[0-9]+(\\.[0-9]*)?$")
    message(FATAL_ERROR "unexpected wall_ms format: ${VALUE}")
  endif()
  string(REGEX REPLACE "\\..*$" "" INT "${VALUE}")
  set(${OUTVAR} "${INT}" PARENT_SCOPE)
endfunction()

string(JSON HOST_CORES GET "${MEASURED}" host_cores)
foreach(MI RANGE ${LAST_MEASURED})
  string(JSON DEVJOBS ERROR_VARIABLE NOTSWEEP
         GET "${MEASURED}" rows ${MI} device_jobs)
  if(NOT NOTSWEEP STREQUAL "NOTFOUND" OR DEVJOBS EQUAL 1)
    continue()
  endif()
  string(JSON WL GET "${MEASURED}" rows ${MI} workload)
  string(JSON VAR GET "${MEASURED}" rows ${MI} variant)
  if(HOST_CORES LESS DEVJOBS)
    message(STATUS "${WL}/${VAR} at ${DEVJOBS} device jobs: not gated "
                   "(host_cores ${HOST_CORES})")
    continue()
  endif()
  string(JSON WALL GET "${MEASURED}" rows ${MI} wall_ms)
  set(TWIN "")
  foreach(SI RANGE ${LAST_MEASURED})
    string(JSON SJOBS ERROR_VARIABLE SNOTSWEEP
           GET "${MEASURED}" rows ${SI} device_jobs)
    string(JSON SWL GET "${MEASURED}" rows ${SI} workload)
    string(JSON SVAR GET "${MEASURED}" rows ${SI} variant)
    if(SNOTSWEEP STREQUAL "NOTFOUND" AND SJOBS EQUAL 1 AND SWL STREQUAL WL
       AND SVAR STREQUAL VAR)
      string(JSON TWIN GET "${MEASURED}" rows ${SI} wall_ms)
      break()
    endif()
  endforeach()
  if(TWIN STREQUAL "")
    message(SEND_ERROR
      "device-jobs row ${WL}/${VAR} at ${DEVJOBS} jobs has no device_jobs = 1 "
      "twin in ${JSON}")
    set(FAILED 1)
    continue()
  endif()
  wall_ms_int("${WALL}" WALL_MS)
  wall_ms_int("${TWIN}" TWIN_MS)
  math(EXPR LIMIT "${TWIN_MS} * 3 / 2")
  if(WALL_MS GREATER LIMIT)
    message(SEND_ERROR
      "perf regression: ${WL}/${VAR} at ${DEVJOBS} device jobs took "
      "${WALL} ms, more than 1.5x its serial twin's ${TWIN} ms "
      "(host_cores ${HOST_CORES})")
    set(FAILED 1)
  else()
    message(STATUS "${WL}/${VAR} at ${DEVJOBS} device jobs: ${WALL} ms <= "
                   "1.5x serial ${TWIN} ms")
  endif()
endforeach()

if(FAILED)
  message(FATAL_ERROR "simspeed perf-regression gate failed")
endif()
message(STATUS "simspeed serial throughput within 10% of baseline floors; "
               "gated device-jobs rows within 1.5x of their serial twins")
