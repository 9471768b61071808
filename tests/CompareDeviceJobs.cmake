# Runs a bench binary under GPUSTM_DEVICE_JOBS=1, 2 and 4 and fails unless
# every run's stdout is byte-identical and every BENCH_*.json is identical
# once the host-throughput fields (jobs, wall_ms*, rounds_per_sec,
# switches_per_round, replays, spec_rounds, replay_rate) are stripped: speculative
# parallel warp-round execution must be invisible in every modeled number.
#
# With SAN=1 the binary additionally runs under GPUSTM_SAN=1 (which forces
# the device serial and must leave a clean simtsan report) and the same
# identity is required across GPUSTM_DEVICE_JOBS values -- the observer
# wins over the parallel request without changing a single finding.
#
# Usage:
#   cmake -DBENCH=<binary> -DJSON_NAME=<BENCH_x.json> -DWORKDIR=<dir>
#         [-DWORKLOADS=<filter>] [-DSAN=1] -P CompareDeviceJobs.cmake

if(NOT BENCH OR NOT JSON_NAME OR NOT WORKDIR)
  message(FATAL_ERROR "BENCH, JSON_NAME and WORKDIR are required")
endif()

function(read_stripped INFILE OUTVAR)
  file(READ "${INFILE}" J)
  string(REGEX REPLACE "\"jobs\":[0-9]+," "" J "${J}")
  string(REGEX REPLACE "\"device_jobs\":[0-9]+," "" J "${J}")
  string(REGEX REPLACE "\"wall_ms_total\":[0-9.eE+-]+," "" J "${J}")
  string(REGEX REPLACE ",\"wall_ms\":[^,}]+" "" J "${J}")
  string(REGEX REPLACE ",\"rounds_per_sec\":[^,}]+" "" J "${J}")
  string(REGEX REPLACE ",\"switches_per_round\":[^,}]+" "" J "${J}")
  string(REGEX REPLACE ",\"replays\":[^,}]+" "" J "${J}")
  string(REGEX REPLACE ",\"spec_rounds\":[^,}]+" "" J "${J}")
  string(REGEX REPLACE ",\"replay_rate\":[^,}]+" "" J "${J}")
  set(${OUTVAR} "${J}" PARENT_SCOPE)
endfunction()

foreach(DEVJOBS 1 2 4)
  set(DIR "${WORKDIR}/devjobs${DEVJOBS}")
  file(MAKE_DIRECTORY "${DIR}")
  if(SAN)
    # SAN and TRACE set together: each observer independently forces the
    # device serial; findings and traces must be unchanged by the request.
    set(SAN_ENV "GPUSTM_SAN=1" "GPUSTM_SAN_REPORT=${DIR}/simtsan_report.json"
        "GPUSTM_TRACE=${DIR}/run.trace")
  else()
    set(SAN_ENV "GPUSTM_SAN_REPORT=")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
            GPUSTM_JOBS=1 GPUSTM_DEVICE_JOBS=${DEVJOBS}
            "GPUSTM_BENCH_WORKLOADS=${WORKLOADS}" ${SAN_ENV}
            "${BENCH}"
    WORKING_DIRECTORY "${DIR}"
    RESULT_VARIABLE RC
    OUTPUT_FILE "${DIR}/stdout.txt"
    ERROR_FILE "${DIR}/stderr.txt")
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR
      "${BENCH} failed under GPUSTM_DEVICE_JOBS=${DEVJOBS}: ${RC}")
  endif()
endforeach()

# Stdout carries every human-facing modeled number; require byte identity.
file(READ "${WORKDIR}/devjobs1/stdout.txt" OUT_SERIAL)
read_stripped("${WORKDIR}/devjobs1/${JSON_NAME}" JSON_SERIAL)
foreach(DEVJOBS 2 4)
  file(READ "${WORKDIR}/devjobs${DEVJOBS}/stdout.txt" OUT_PAR)
  if(NOT OUT_SERIAL STREQUAL OUT_PAR)
    message(FATAL_ERROR
      "stdout changed under GPUSTM_DEVICE_JOBS=${DEVJOBS}; compare "
      "${WORKDIR}/devjobs1/stdout.txt against "
      "${WORKDIR}/devjobs${DEVJOBS}/stdout.txt")
  endif()
  read_stripped("${WORKDIR}/devjobs${DEVJOBS}/${JSON_NAME}" JSON_PAR)
  if(NOT JSON_SERIAL STREQUAL JSON_PAR)
    message(FATAL_ERROR
      "modeled JSON changed under GPUSTM_DEVICE_JOBS=${DEVJOBS}; compare "
      "${WORKDIR}/devjobs1/${JSON_NAME} against "
      "${WORKDIR}/devjobs${DEVJOBS}/${JSON_NAME}")
  endif()
endforeach()

if(SAN)
  # Every detector run must have been forced serial with a clean report, and
  # the parallel request must have been called out on stderr.
  foreach(DEVJOBS 1 2 4)
    set(DIR "${WORKDIR}/devjobs${DEVJOBS}")
    if(NOT EXISTS "${DIR}/simtsan_report.json")
      message(FATAL_ERROR
        "GPUSTM_SAN=1 GPUSTM_DEVICE_JOBS=${DEVJOBS} left no simtsan report")
    endif()
    file(READ "${DIR}/simtsan_report.json" REPORT)
    if(NOT REPORT MATCHES "\"tool\":\"simtsan\",\"findings\":0,")
      message(FATAL_ERROR
        "simtsan reported findings under GPUSTM_DEVICE_JOBS=${DEVJOBS}: "
        "${REPORT}")
    endif()
  endforeach()
  # Traces are fully modeled data: byte identity across device-jobs levels.
  file(READ "${WORKDIR}/devjobs1/run.trace" TRACE_SERIAL HEX)
  foreach(DEVJOBS 2 4)
    file(READ "${WORKDIR}/devjobs${DEVJOBS}/run.trace" TRACE_PAR HEX)
    if(NOT TRACE_SERIAL STREQUAL TRACE_PAR)
      message(FATAL_ERROR
        "trace changed under GPUSTM_DEVICE_JOBS=${DEVJOBS}; compare "
        "${WORKDIR}/devjobs1/run.trace against "
        "${WORKDIR}/devjobs${DEVJOBS}/run.trace")
    endif()
  endforeach()
  file(READ "${WORKDIR}/devjobs4/stderr.txt" ERR4)
  if(NOT ERR4 MATCHES "forcing GPUSTM_DEVICE_JOBS=1")
    message(FATAL_ERROR
      "GPUSTM_SAN=1 GPUSTM_DEVICE_JOBS=4 did not warn about forcing serial "
      "execution; stderr was: ${ERR4}")
  endif()
  message(STATUS
    "GPUSTM_SAN=1 forces serial under GPUSTM_DEVICE_JOBS and stays clean")
else()
  message(STATUS
    "GPUSTM_DEVICE_JOBS 1/2/4 are bit-identical in stdout and ${JSON_NAME}")
endif()
