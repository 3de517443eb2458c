#pragma once

// objcopy emulation: rewriting symbol strength inside an object file.
//
// Symbol Bisect duplicates an object file and turns a chosen subset of its
// strong symbols weak (and the complement weak in the other copy), so the
// linker's strong-beats-weak rule selects functions from the two
// compilations (Sec. 2.3, Fig. 3 right).  Compiled code is shared between
// handles (see object.h), so both operations copy it before rewriting:
// the input object, and every other holder of its code, is unchanged.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "toolchain/object.h"

namespace flit::toolchain {

/// Returns a copy of `obj` with every symbol named in `to_weaken` marked
/// weak.  Names not defined by the object are ignored, matching
/// `objcopy --weaken-symbol` behaviour.
[[nodiscard]] inline ObjectFile objcopy_weaken(
    const ObjectFile& obj, const std::vector<std::string>& to_weaken) {
  auto code = std::make_shared<ObjectCode>(*obj.code);
  for (SymbolDef& s : code->symbols) {
    if (std::find(to_weaken.begin(), to_weaken.end(), s.name) !=
        to_weaken.end()) {
      s.strong = false;
    }
  }
  return ObjectFile{std::move(code), obj.comp};
}

/// Returns a copy of `obj` with every symbol *except* those named in
/// `keep_strong` marked weak (the complement-set operation of Fig. 3).
[[nodiscard]] inline ObjectFile objcopy_weaken_complement(
    const ObjectFile& obj, const std::vector<std::string>& keep_strong) {
  auto code = std::make_shared<ObjectCode>(*obj.code);
  for (SymbolDef& s : code->symbols) {
    if (std::find(keep_strong.begin(), keep_strong.end(), s.name) ==
        keep_strong.end()) {
      s.strong = false;
    }
  }
  return ObjectFile{std::move(code), obj.comp};
}

}  // namespace flit::toolchain
