# ctest driver for the traced-run smoke: run one small faulted scenario
# through the CLI with --trace, then validate the JSONL with
# trace_report.py --check. The link flap and the warm reboot make the
# trace carry fault, link and agent-restore records as well as the TCP and
# agent ones. Invoked from tools/CMakeLists.txt with -DSIM_CLI=...
# -DPYTHON=... -DREPORT=... -DOUT_DIR=...

set(trace_file "${OUT_DIR}/trace_smoke.jsonl")

execute_process(
  COMMAND "${SIM_CLI}" --pops 3 --duration 20 --seed 7
          --faults "@5 flap 0-1 2 2; @8 crash -1 3 reboot-warm"
          --trace "${trace_file}"
  RESULT_VARIABLE sim_rc)
if(NOT sim_rc EQUAL 0)
  message(FATAL_ERROR "riptide_sim --trace failed (rc=${sim_rc})")
endif()

if(NOT EXISTS "${trace_file}")
  message(FATAL_ERROR "traced run produced no ${trace_file}")
endif()

execute_process(
  COMMAND "${PYTHON}" "${REPORT}" "${trace_file}" --check
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "trace_report.py --check rejected ${trace_file}")
endif()
