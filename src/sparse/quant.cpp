#include "mps/sparse/quant.h"

#include <cstdlib>
#include <string>

#include "mps/util/log.h"

namespace mps {

const char *
storage_mode_name(StorageMode mode)
{
    switch (mode) {
    case StorageMode::kBf16:
        return "bf16";
    case StorageMode::kF32:
        break;
    }
    return "f32";
}

bool
parse_storage_mode(const char *s, StorageMode *out)
{
    if (s == nullptr)
        return false;
    const std::string v(s);
    if (v == "f32" || v == "fp32" || v == "float" || v == "float32") {
        *out = StorageMode::kF32;
        return true;
    }
    if (v == "bf16" || v == "bfloat16") {
        *out = StorageMode::kBf16;
        return true;
    }
    return false;
}

namespace {

StorageMode
parse_precision_env()
{
    const char *v = std::getenv("MPS_PRECISION");
    if (v == nullptr || *v == '\0')
        return StorageMode::kF32;
    StorageMode mode = StorageMode::kF32;
    if (!parse_storage_mode(v, &mode)) {
        warn("unrecognized MPS_PRECISION value '" + std::string(v) +
             "' (want f32/bf16); staying at f32");
        return StorageMode::kF32;
    }
    return mode;
}

} // namespace

StorageMode
default_precision()
{
    static const StorageMode mode = parse_precision_env();
    return mode;
}

} // namespace mps
