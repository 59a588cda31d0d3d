# Smoke test for the mps_tool CLI contract, run as
#   cmake -DMPS_TOOL=<binary> -P mps_tool_smoke.cmake
#
# Checks:
#  - no arguments        -> non-zero exit, usage on stderr
#  - unknown subcommand  -> non-zero exit, usage on stderr, stdout clean
#  - unknown flag        -> non-zero exit
#  - help / --help       -> zero exit, usage on stdout
#  - a real command runs -> zero exit
#  - hash prints one FNV-1a line, the same on a second run

if(NOT DEFINED MPS_TOOL)
    message(FATAL_ERROR "pass -DMPS_TOOL=<path to mps_tool>")
endif()

function(expect_failure_with_usage label pattern)
    execute_process(COMMAND ${MPS_TOOL} ${ARGN}
        RESULT_VARIABLE code
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(code EQUAL 0)
        message(FATAL_ERROR "${label}: expected non-zero exit, got 0")
    endif()
    if(NOT err MATCHES "${pattern}")
        message(FATAL_ERROR "${label}: expected '${pattern}' on stderr,"
            " got: ${err}")
    endif()
    if(out MATCHES "mps_tool <command>")
        message(FATAL_ERROR "${label}: usage leaked to stdout: ${out}")
    endif()
endfunction()

expect_failure_with_usage("no arguments" "mps_tool <command>")
expect_failure_with_usage("unknown subcommand" "mps_tool <command>"
    no-such-command)
expect_failure_with_usage("unknown flag" "usage:" info --no-such-flag=1)

execute_process(COMMAND ${MPS_TOOL} --help
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT code EQUAL 0)
    message(FATAL_ERROR "--help: expected exit 0, got ${code}")
endif()
if(NOT out MATCHES "mps_tool <command>")
    message(FATAL_ERROR "--help: expected usage on stdout, got: ${out}")
endif()

execute_process(COMMAND ${MPS_TOOL} info --dataset=Cora
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT code EQUAL 0)
    message(FATAL_ERROR "info --dataset=Cora: expected exit 0, got ${code}"
        " (stderr: ${err})")
endif()
if(NOT out MATCHES "non-zeros")
    message(FATAL_ERROR "info --dataset=Cora: unexpected output: ${out}")
endif()

foreach(run 1 2)
    execute_process(COMMAND ${MPS_TOOL} hash --dataset=Cora --model=16-16-8
            --workers=2
        RESULT_VARIABLE code
        OUTPUT_VARIABLE hash_${run}
        ERROR_VARIABLE err)
    if(NOT code EQUAL 0)
        message(FATAL_ERROR "hash --dataset=Cora: expected exit 0, got"
            " ${code} (stderr: ${err})")
    endif()
endforeach()
if(NOT hash_1 MATCHES "^fnv1a [0-9a-f]+  2708 x 8 ")
    message(FATAL_ERROR "hash --dataset=Cora: unexpected output: ${hash_1}")
endif()
if(NOT hash_1 STREQUAL hash_2)
    message(FATAL_ERROR "hash --dataset=Cora: two runs differ: ${hash_1}"
        " vs ${hash_2}")
endif()

message(STATUS "mps_tool smoke: all checks passed")
