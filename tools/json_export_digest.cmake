# Pins the bytes of the JSON exporters: runs four cedar_cli exports
# and compares each file's SHA-256 with the digest recorded from the
# snprintf-based writer that preceded the std::to_chars one. Any
# change to a number's digits, to escaping, to layout or to the order
# of fields fails here.
#
#   cmake -DCLI=<path to cedar_cli> -DOUT=<scratch dir> \
#         -P json_export_digest.cmake

if(NOT CLI OR NOT OUT)
    message(FATAL_ERROR
            "usage: cmake -DCLI=... -DOUT=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
file(MAKE_DIRECTORY ${OUT})
set(failed "")

# check(<file> <expected SHA-256> <cedar_cli arguments>...)
function(check name want)
    file(REMOVE ${OUT}/${name})
    execute_process(COMMAND ${CLI} ${ARGN}
                    RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(SEND_ERROR "${name}: cedar_cli ${ARGN} exited ${rc}")
        set(failed ${failed} ${name} PARENT_SCOPE)
        return()
    endif()
    file(SHA256 ${OUT}/${name} got)
    if(got STREQUAL want)
        message(STATUS "${name}: ${got} ok")
    else()
        message(SEND_ERROR "${name}: SHA-256 ${got}, expected ${want}")
        set(failed ${failed} ${name} PARENT_SCOPE)
    endif()
endfunction()

check(spans.json
      6abade1cae37f7d8c04c57a6ed03fb59cc78f802679e50b66fc818edc6dac345
      trace ADM 8 ${OUT}/spans.json --spans --scale 0.01
      --ts-window 50000)
check(chrome.json
      8c35656d7473a8097ce0f08022cd77fc4704b1cbc7cec5cb659123a226f53435
      trace OCEAN 8 ${OUT}/chrome.json --chrome --scale 0.1)
check(metrics.json
      8179fb7c7c475c8923f129e32920329091e2c9e3f0d9d689900cce1687c5d31b
      metrics ADM 8 --scale 0.2 --ts-window 100000
      --json ${OUT}/metrics.json)
check(report.json
      7a90b531c80b4e9248605109eeb344dae509669299b44e78d196f69b5caea4ea
      report ADM 8 --scale 0.2 --json ${OUT}/report.json)

if(failed)
    message(FATAL_ERROR "exported bytes changed: ${failed}")
endif()
