#ifndef ODE_COMMON_FILE_IO_H_
#define ODE_COMMON_FILE_IO_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace ode {

/// Reads the whole file. kNotFound when it cannot be opened.
Result<std::string> ReadFileToString(const std::string& path);

/// The one whole-file writer (checkpoints and database snapshots): writes
/// `bytes` to `tmp_path`, fsyncs it, renames it over `path` and fsyncs the
/// directory. A crash at any point leaves either the old file or the new
/// one, never a mix; a stale `tmp_path` is harmless garbage.
Status WriteFileAtomically(const std::string& path, std::string_view bytes,
                           const std::string& tmp_path);

}  // namespace ode

#endif  // ODE_COMMON_FILE_IO_H_
