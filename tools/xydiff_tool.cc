// xydiff_tool — command-line front end, in the spirit of the utilities
// the original XyDiff distribution shipped ("Xydiff, tools for detecting
// changes in XML documents", reference [8] of the paper).
//
//   xydiff_tool diff OLD.xml NEW.xml [-o DELTA] [--meta M] [--write-meta M2]
//               [--pretty] [--no-moves] [--no-ids] [--window N] [--stats]
//   xydiff_tool patch DOC.xml DELTA.xml [-o OUT] [--meta M] [--reverse]
//               [--write-meta M2]
//   xydiff_tool invert DELTA.xml [-o OUT]
//   xydiff_tool compose BASE.xml D1.xml D2.xml [-o OUT] [--meta M]
//   xydiff_tool stats DELTA.xml
//   xydiff_tool validate DELTA.xml
//   xydiff_tool batch MANIFEST.tsv [-o WAREHOUSE_DIR] [--threads N]
//               [--stats] [--fail-fast] [--deadline-ms MS]
//               [--max-batch-bytes BYTES]
//   xydiff_tool checkout WAREHOUSE_DIR URL [--version N] [-o OUT] [--stats]
//
// XIDs are persisted in sidecar meta files (--meta / --write-meta, see
// version/storage.h); without one, a document gets first-version postfix
// XIDs, which is reproducible, so `patch` on the same file pair works
// without any sidecars.

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/buld.h"
#include "delta/apply.h"
#include "delta/compose.h"
#include "delta/delta_xml.h"
#include "delta/invert.h"
#include "delta/summary.h"
#include "delta/validate.h"
#include "util/env.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "version/storage.h"
#include "version/warehouse.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xydiff {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: xydiff_tool <diff|patch|invert|compose|stats|validate"
               "|batch|checkout> [args...]\n"
               "run a command without arguments for details; also: explain\n");
  return 2;
}

/// Minimal flag cracker: positionals in order, flags by name.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "-o" || arg == "--meta" || arg == "--write-meta" ||
          arg == "--window" || arg == "--threads" || arg == "--version" ||
          arg == "--deadline-ms" || arg == "--max-batch-bytes") {
        if (i + 1 >= argc) {
          error_ = "flag " + arg + " needs a value";
          return;
        }
        named_[arg] = argv[++i];
      } else if (arg.rfind("--", 0) == 0) {
        named_[arg] = "";
      } else {
        positional_.push_back(arg);
      }
    }
  }

  const std::string& error() const { return error_; }
  const std::vector<std::string>& positional() const { return positional_; }
  bool Has(const std::string& flag) const { return named_.count(flag) != 0; }
  std::optional<std::string> Get(const std::string& flag) const {
    auto it = named_.find(flag);
    if (it == named_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> named_;
  std::string error_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Strict positive-integer flag parsing: "abc" or "0" is a usage
/// error, not a silent clamp to 1.
Result<long> ParsePositive(const std::string& flag,
                           const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (errno != 0 || end == value.c_str() || *end != '\0' || parsed <= 0) {
    return Status::InvalidArgument(flag + " expects a positive integer, got '" +
                                   value + "'");
  }
  return parsed;
}

Status WriteOutput(const std::optional<std::string>& path,
                   const std::string& content) {
  if (!path.has_value()) {
    std::fwrite(content.data(), 1, content.size(), stdout);
    return Status::OK();
  }
  // Plain (non-atomic) write: -o may name a device like /dev/null, which
  // cannot be renamed onto. Repository persistence stays atomic.
  return Env::Default()->WriteFile(*path, content);
}

/// Loads a document; with `meta` its persisted XIDs, else first-version
/// postfix XIDs.
Result<XmlDocument> LoadVersion(const std::string& xml_path,
                                const std::optional<std::string>& meta) {
  if (meta.has_value()) return LoadDocumentWithXids(xml_path, *meta);
  Result<XmlDocument> doc = ParseXmlFile(xml_path);
  if (!doc.ok()) return doc.status();
  doc->AssignInitialXids();
  return doc;
}

Result<Delta> LoadDelta(const std::string& path) {
  Result<std::string> text = Env::Default()->ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseDelta(*text);
}

void PrintDeltaStats(const Delta& delta) {
  std::printf("operations     : %zu\n", delta.operation_count());
  std::printf("  deletes      : %zu\n", delta.deletes().size());
  std::printf("  inserts      : %zu\n", delta.inserts().size());
  std::printf("  moves        : %zu\n", delta.moves().size());
  std::printf("  text updates : %zu\n", delta.updates().size());
  std::printf("  attribute ops: %zu\n", delta.attribute_ops().size());
  std::printf("snapshot nodes : %zu\n", delta.snapshot_node_count());
  std::printf("edit cost      : %zu\n", delta.edit_cost());
  std::printf("xid range      : old next %llu, new next %llu\n",
              static_cast<unsigned long long>(delta.old_next_xid()),
              static_cast<unsigned long long>(delta.new_next_xid()));
}

int CmdDiff(const Args& args) {
  if (args.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: xydiff_tool diff OLD.xml NEW.xml [-o DELTA]"
                 " [--meta M] [--write-meta M2] [--pretty] [--no-moves]"
                 " [--no-ids] [--window N] [--stats]\n");
    return 2;
  }
  Result<XmlDocument> old_doc =
      LoadVersion(args.positional()[0], args.Get("--meta"));
  if (!old_doc.ok()) return Fail(old_doc.status());
  Result<XmlDocument> new_doc = ParseXmlFile(args.positional()[1]);
  if (!new_doc.ok()) return Fail(new_doc.status());

  DiffOptions options;
  if (args.Has("--no-moves")) options.detect_moves = false;
  if (args.Has("--no-ids")) options.use_id_attributes = false;
  if (auto window = args.Get("--window")) {
    options.lops_window = static_cast<size_t>(std::stoul(*window));
  }

  DiffStats stats;
  Result<Delta> delta =
      XyDiff(&old_doc.value(), &new_doc.value(), options, &stats);
  if (!delta.ok()) return Fail(delta.status());

  if (Status s = WriteOutput(args.Get("-o"),
                             SerializeDelta(*delta, args.Has("--pretty")));
      !s.ok()) {
    return Fail(s);
  }
  if (auto meta = args.Get("--write-meta")) {
    // Persist the new version's XIDs so future diffs chain correctly.
    if (Status s = SaveDocumentWithXids(
            *new_doc, args.positional()[1] + ".xy.xml", *meta);
        !s.ok()) {
      return Fail(s);
    }
  }
  if (args.Has("--stats")) {
    std::fprintf(stderr,
                 "nodes %zu -> %zu, matched %zu, diff time %.3f ms\n",
                 stats.nodes_old, stats.nodes_new, stats.matched_nodes,
                 stats.total_seconds() * 1e3);
  }
  return 0;
}

int CmdPatch(const Args& args) {
  if (args.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: xydiff_tool patch DOC.xml DELTA.xml [-o OUT]"
                 " [--meta M] [--reverse] [--write-meta M2]\n");
    return 2;
  }
  Result<XmlDocument> doc =
      LoadVersion(args.positional()[0], args.Get("--meta"));
  if (!doc.ok()) return Fail(doc.status());
  Result<Delta> delta = LoadDelta(args.positional()[1]);
  if (!delta.ok()) return Fail(delta.status());

  const Status applied = args.Has("--reverse")
                             ? ApplyDeltaInverse(*delta, &doc.value())
                             : ApplyDelta(*delta, &doc.value());
  if (!applied.ok()) return Fail(applied);

  SerializeOptions serialize;
  serialize.xml_declaration = true;
  serialize.doctype = true;
  if (Status s = WriteOutput(args.Get("-o"), SerializeDocument(*doc, serialize));
      !s.ok()) {
    return Fail(s);
  }
  if (auto meta = args.Get("--write-meta")) {
    const std::string xml_path =
        args.Get("-o").value_or(args.positional()[0] + ".patched.xml");
    if (Status s = SaveDocumentWithXids(*doc, xml_path, *meta); !s.ok()) {
      return Fail(s);
    }
  }
  return 0;
}

int CmdInvert(const Args& args) {
  if (args.positional().size() != 1) {
    std::fprintf(stderr, "usage: xydiff_tool invert DELTA.xml [-o OUT]\n");
    return 2;
  }
  Result<Delta> delta = LoadDelta(args.positional()[0]);
  if (!delta.ok()) return Fail(delta.status());
  if (Status s =
          WriteOutput(args.Get("-o"), SerializeDelta(InvertDelta(*delta)));
      !s.ok()) {
    return Fail(s);
  }
  return 0;
}

int CmdCompose(const Args& args) {
  if (args.positional().size() != 3) {
    std::fprintf(stderr,
                 "usage: xydiff_tool compose BASE.xml D1.xml D2.xml"
                 " [-o OUT] [--meta M]\n");
    return 2;
  }
  Result<XmlDocument> base =
      LoadVersion(args.positional()[0], args.Get("--meta"));
  if (!base.ok()) return Fail(base.status());
  Result<Delta> d1 = LoadDelta(args.positional()[1]);
  if (!d1.ok()) return Fail(d1.status());
  Result<Delta> d2 = LoadDelta(args.positional()[2]);
  if (!d2.ok()) return Fail(d2.status());
  Result<Delta> composed = ComposeDeltas(*base, *d1, *d2);
  if (!composed.ok()) return Fail(composed.status());
  if (Status s = WriteOutput(args.Get("-o"), SerializeDelta(*composed));
      !s.ok()) {
    return Fail(s);
  }
  return 0;
}

int CmdStats(const Args& args) {
  if (args.positional().size() != 1) {
    std::fprintf(stderr, "usage: xydiff_tool stats DELTA.xml\n");
    return 2;
  }
  Result<Delta> delta = LoadDelta(args.positional()[0]);
  if (!delta.ok()) return Fail(delta.status());
  PrintDeltaStats(*delta);
  return 0;
}

int CmdExplain(const Args& args) {
  if (args.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: xydiff_tool explain OLD.xml DELTA.xml [--meta M]\n");
    return 2;
  }
  Result<XmlDocument> old_doc =
      LoadVersion(args.positional()[0], args.Get("--meta"));
  if (!old_doc.ok()) return Fail(old_doc.status());
  Result<Delta> delta = LoadDelta(args.positional()[1]);
  if (!delta.ok()) return Fail(delta.status());
  // Materialize the new version to resolve target-side paths.
  XmlDocument new_doc = old_doc->Clone();
  if (Status s = ApplyDelta(*delta, &new_doc); !s.ok()) return Fail(s);
  Result<std::string> report = ExplainDelta(*delta, *old_doc, new_doc);
  if (!report.ok()) return Fail(report.status());
  std::fputs(report->c_str(), stdout);
  return 0;
}

/// The parallel warehouse driver: diffs many old/new file pairs, each
/// worker taking one document through parse → diff → store (see
/// Warehouse::DiffBatch).
/// The manifest has one `OLD.xml<TAB>NEW.xml[<TAB>URL]` line per
/// document; URL defaults to the old path. With -o the warehouse (delta
/// chains and all) is persisted for later querying.
int CmdBatch(const Args& args) {
  if (args.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: xydiff_tool batch MANIFEST.tsv [-o WAREHOUSE_DIR]"
                 " [--threads N] [--stats] [--fail-fast]\n"
                 "       [--deadline-ms MS] [--max-batch-bytes BYTES]\n"
                 "manifest line: OLD.xml<TAB>NEW.xml[<TAB>URL]\n"
                 "exit codes: 0 ok, 1 slot failed, 2 usage, 3 deadline,\n"
                 "            4 cancelled, 5 shed (budget), 6 quarantined\n");
    return 2;
  }
  Result<std::string> manifest =
      Env::Default()->ReadFile(args.positional()[0]);
  if (!manifest.ok()) return Fail(manifest.status());

  std::vector<Warehouse::DiffJob> olds;
  std::vector<Warehouse::DiffJob> news;
  for (std::string_view line : SplitLines(*manifest)) {
    if (line.empty()) continue;
    const size_t tab1 = line.find('\t');
    if (tab1 == std::string_view::npos) {
      return Fail(Status::InvalidArgument("manifest line without tab: " +
                                          std::string(line)));
    }
    const size_t tab2 = line.find('\t', tab1 + 1);
    const std::string old_path(line.substr(0, tab1));
    const std::string new_path(
        line.substr(tab1 + 1, tab2 == std::string_view::npos
                                  ? std::string_view::npos
                                  : tab2 - tab1 - 1));
    const std::string url(tab2 == std::string_view::npos
                              ? old_path
                              : std::string(line.substr(tab2 + 1)));
    Result<std::string> old_xml = Env::Default()->ReadFile(old_path);
    if (!old_xml.ok()) return Fail(old_xml.status());
    Result<std::string> new_xml = Env::Default()->ReadFile(new_path);
    if (!new_xml.ok()) return Fail(new_xml.status());
    olds.push_back({url, std::move(*old_xml)});
    news.push_back({url, std::move(*new_xml)});
  }

  Warehouse::PipelineOptions pipeline;
  pipeline.threads = ThreadPool::DefaultThreadCount();
  if (auto threads = args.Get("--threads")) {
    Result<long> parsed = ParsePositive("--threads", *threads);
    if (!parsed.ok()) return Fail(parsed.status());
    pipeline.threads = static_cast<int>(std::min<long>(*parsed, 1024));
  }
  pipeline.fail_fast = args.Has("--fail-fast");
  // The deadline context must outlive both DiffBatch calls below; it
  // covers the whole run (old versions + new versions).
  std::optional<Context> deadline_context;
  if (auto deadline = args.Get("--deadline-ms")) {
    Result<long> parsed = ParsePositive("--deadline-ms", *deadline);
    if (!parsed.ok()) return Fail(parsed.status());
    deadline_context = Context::WithTimeout(std::chrono::milliseconds(*parsed));
    pipeline.context = &*deadline_context;
  }
  if (auto budget = args.Get("--max-batch-bytes")) {
    Result<long> parsed = ParsePositive("--max-batch-bytes", *budget);
    if (!parsed.ok()) return Fail(parsed.status());
    pipeline.max_batch_bytes = static_cast<size_t>(*parsed);
  }

  // Per-slot outcomes accumulate here; the tool always prints a summary
  // of every failed slot and exits non-zero if there was any. Overload
  // outcomes (deadline / cancelled / shed / quarantined) are counted
  // separately and map to distinct exit codes.
  std::vector<std::string> failed_slots;
  size_t aborted = 0;
  size_t deadline_slots = 0, cancelled_slots = 0;
  size_t shed_slots = 0, quarantined_slots = 0;
  const std::vector<std::string> urls = [&] {
    std::vector<std::string> out;
    for (const Warehouse::DiffJob& job : news) out.push_back(job.url);
    return out;
  }();
  const auto record = [&](size_t index, const Status& status,
                          const char* pass) {
    if (status.code() == StatusCode::kAborted) {
      ++aborted;
      return;
    }
    const char* category = "failed";
    switch (status.code()) {
      case StatusCode::kDeadlineExceeded:
        ++deadline_slots;
        category = "deadline";
        break;
      case StatusCode::kCancelled:
        ++cancelled_slots;
        category = "cancelled";
        break;
      case StatusCode::kResourceExhausted:
        ++shed_slots;
        category = "shed";
        break;
      case StatusCode::kUnavailable:
        ++quarantined_slots;
        category = "quarantined";
        break;
      default:
        break;
    }
    failed_slots.push_back(urls[index] + " (" + pass + ", " + category +
                           "): " + status.ToString());
  };

  Warehouse warehouse;
  {
    const std::vector<Result<Warehouse::IngestReport>> first =
        warehouse.DiffBatch(std::move(olds), pipeline);
    for (size_t i = 0; i < first.size(); ++i) {
      if (!first[i].ok()) record(i, first[i].status(), "old version");
    }
  }
  PipelineStats stats;
  size_t total_ops = 0, total_delta_bytes = 0;
  const std::vector<Result<Warehouse::IngestReport>> second =
      warehouse.DiffBatch(std::move(news), pipeline, &stats);
  for (size_t i = 0; i < second.size(); ++i) {
    const Result<Warehouse::IngestReport>& r = second[i];
    if (!r.ok()) {
      record(i, r.status(), "new version");
      continue;
    }
    std::printf("%s: v%d, %zu operation(s), %zu delta byte(s)\n",
                r->url.c_str(), r->version, r->operations, r->delta_bytes);
    total_ops += r->operations;
    total_delta_bytes += r->delta_bytes;
  }
  std::printf("batch: %zu document(s), %zu operation(s), %zu delta byte(s),"
              " %zu failure(s)\n",
              warehouse.document_count(), total_ops, total_delta_bytes,
              failed_slots.size());
  if (!failed_slots.empty()) {
    std::fprintf(stderr, "failed slots (%zu):\n", failed_slots.size());
    for (const std::string& slot : failed_slots) {
      std::fprintf(stderr, "  %s\n", slot.c_str());
    }
  }
  if (aborted > 0) {
    std::fprintf(stderr, "%zu slot(s) skipped by --fail-fast\n", aborted);
  }
  const size_t overload_slots =
      deadline_slots + cancelled_slots + shed_slots + quarantined_slots;
  if (overload_slots > 0) {
    std::fprintf(stderr,
                 "overload: %zu deadline, %zu cancelled, %zu shed,"
                 " %zu quarantined\n",
                 deadline_slots, cancelled_slots, shed_slots,
                 quarantined_slots);
  }
  if (args.Has("--stats")) {
    std::fputs(stats.ToString().c_str(), stderr);
  }
  if (auto out = args.Get("-o")) {
    if (Status s = warehouse.Save(*out); !s.ok()) return Fail(s);
    std::printf("warehouse saved to %s\n", out->c_str());
  }
  if (failed_slots.empty()) return 0;
  // Distinct exit codes when every failure shares one overload cause;
  // mixed or intrinsic failures keep the generic code 1.
  if (failed_slots.size() == overload_slots) {
    if (deadline_slots == overload_slots) return 3;
    if (cancelled_slots == overload_slots) return 4;
    if (shed_slots == overload_slots) return 5;
    if (quarantined_slots == overload_slots) return 6;
  }
  return 1;
}

/// Reconstructs one version of one warehouse document from its
/// persisted repository (§2 "Querying the past"): `URL` is looked up in
/// the warehouse manifest written by `batch -o` (a raw subdirectory
/// name is accepted too), the crash-safe store is recovered and loaded,
/// and the requested version (default: newest) is written out.
int CmdCheckout(const Args& args) {
  if (args.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: xydiff_tool checkout WAREHOUSE_DIR URL"
                 " [--version N] [-o OUT] [--stats]\n");
    return 2;
  }
  const std::string& directory = args.positional()[0];
  const std::string& url = args.positional()[1];

  // A crashed batch group commit may have left a journal; roll it
  // forward (or discard a torn one) before trusting any slot.
  if (Status s = RecoverRepositoryBatch(directory); !s.ok()) return Fail(s);

  Result<std::string> manifest =
      Env::Default()->ReadFile(directory + "/manifest.tsv");
  if (!manifest.ok()) return Fail(manifest.status());
  std::string subdirectory;
  for (std::string_view line : SplitLines(*manifest)) {
    const size_t tab = line.find('\t');
    if (tab == std::string_view::npos) continue;
    if (line.substr(tab + 1) == url || line.substr(0, tab) == url) {
      subdirectory = std::string(line.substr(0, tab));
      break;
    }
  }
  if (subdirectory.empty()) {
    return Fail(Status::NotFound("no document '" + url +
                                 "' in warehouse manifest " + directory +
                                 "/manifest.tsv"));
  }

  RecoveryReport report;
  Result<VersionRepository> repo =
      LoadRepository(directory + "/" + subdirectory, nullptr, &report);
  if (!repo.ok()) return Fail(repo.status());
  if (!report.clean) {
    std::fprintf(stderr, "recovery: %s\n", report.ToString().c_str());
  }

  int version = repo->current_version();
  if (auto flag = args.Get("--version")) {
    Result<long> parsed = ParsePositive("--version", *flag);
    if (!parsed.ok()) return Fail(parsed.status());
    version = static_cast<int>(std::min<long>(*parsed, INT_MAX));
  }
  CheckoutStats stats;
  Result<XmlDocument> doc = repo->Checkout(version, &stats);
  if (!doc.ok()) return Fail(doc.status());

  SerializeOptions serialize;
  serialize.xml_declaration = true;
  serialize.doctype = true;
  if (Status s =
          WriteOutput(args.Get("-o"), SerializeDocument(*doc, serialize));
      !s.ok()) {
    return Fail(s);
  }
  if (args.Has("--stats")) {
    std::fprintf(stderr,
                 "checkout: version %d of %d, %zu delta application(s),"
                 " %s path\n",
                 version, repo->current_version(), stats.applications,
                 stats.forward ? "forward skip" : "backward replay");
  }
  return 0;
}

int CmdValidate(const Args& args) {
  if (args.positional().size() != 1) {
    std::fprintf(stderr, "usage: xydiff_tool validate DELTA.xml\n");
    return 2;
  }
  Result<Delta> delta = LoadDelta(args.positional()[0]);
  if (!delta.ok()) return Fail(delta.status());
  if (Status s = ValidateDelta(*delta); !s.ok()) return Fail(s);
  std::printf("ok: %zu operation(s)\n", delta->operation_count());
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Args args(argc, argv);
  if (!args.error().empty()) {
    std::fprintf(stderr, "error: %s\n", args.error().c_str());
    return 2;
  }
  if (command == "diff") return CmdDiff(args);
  if (command == "patch") return CmdPatch(args);
  if (command == "invert") return CmdInvert(args);
  if (command == "compose") return CmdCompose(args);
  if (command == "stats") return CmdStats(args);
  if (command == "validate") return CmdValidate(args);
  if (command == "explain") return CmdExplain(args);
  if (command == "batch") return CmdBatch(args);
  if (command == "checkout") return CmdCheckout(args);
  return Usage();
}

}  // namespace
}  // namespace xydiff

int main(int argc, char** argv) { return xydiff::Run(argc, argv); }
