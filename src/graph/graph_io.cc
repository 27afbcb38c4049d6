#include "graph/graph_io.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/string_util.h"

namespace ngd {

namespace {

// ---- Record-name validation -------------------------------------------------

/// Identifier rule shared by writer and readers: non-empty, no whitespace
/// or control characters; attribute names additionally exclude '=' (the
/// key/value separator) and '"' (would mimic a string opener).
bool ValidTsvName(std::string_view name, bool is_attr) {
  if (name.empty()) return false;
  for (char c : name) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u < 0x21 || u == 0x7f) return false;  // space, controls, DEL
    if (is_attr && (c == '=' || c == '"')) return false;
  }
  return true;
}

void EscapeStringTo(std::string_view s, std::ostream* os) {
  *os << '"';
  for (char c : s) {
    switch (c) {
      case '\\':
        *os << "\\\\";
        break;
      case '"':
        *os << "\\\"";
        break;
      case '\t':
        *os << "\\t";
        break;
      case '\n':
        *os << "\\n";
        break;
      case '\r':
        *os << "\\r";
        break;
      default:
        *os << c;
    }
  }
  *os << '"';
}

// ---- Shard-local parse state ------------------------------------------------

/// Thread-local interning: first-occurrence order within the shard, so
/// the deterministic shard-order merge reproduces the global
/// first-occurrence order a sequential parse would produce. Keys are
/// views into the chunk text (which outlives the shard and the merge),
/// so the hot per-record path allocates nothing.
struct LocalDict {
  std::vector<std::string_view> names;
  std::unordered_map<std::string_view, uint32_t> index;

  uint32_t Intern(std::string_view name) {
    auto [it, inserted] =
        index.try_emplace(name, static_cast<uint32_t>(names.size()));
    if (inserted) names.push_back(name);
    return it->second;
  }
};

struct ParsedAttr {
  uint32_t name;  // local attr-dict id
  Value value;
};

struct ParsedNode {
  uint32_t label;  // local label-dict id
  uint32_t attr_begin;
  uint32_t attr_end;  // into Shard::attrs
};

struct ParsedEdge {
  int64_t src;
  int64_t dst;        // absolute file-declared ids, validated at merge
  uint32_t label;     // local label-dict id
  uint32_t line;      // shard-local line number (1-based)
};

struct Shard {
  LocalDict labels;
  LocalDict attr_names;
  std::vector<ParsedNode> nodes;
  std::vector<ParsedAttr> attrs;
  std::vector<ParsedEdge> edges;
  size_t num_lines = 0;  // every input line, incl. comments/blanks
  Status error = Status::OK();
  size_t error_line = 0;  // shard-local line of `error`
};

/// Splits `s` on `sep` into string_views, keeping empty pieces.
void SplitFields(std::string_view s, char sep,
                 std::vector<std::string_view>* out) {
  out->clear();
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out->push_back(s.substr(start));
      return;
    }
    out->push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

/// Decodes an attribute value field: a quoted escaped string or a base-10
/// integer. Returns false with *msg set on malformed input.
bool ParseAttrValue(std::string_view raw, Value* out, std::string* msg) {
  if (!raw.empty() && raw.front() == '"') {
    std::string s;
    s.reserve(raw.size());
    size_t i = 1;
    while (i < raw.size()) {
      const char c = raw[i];
      if (c == '"') {
        if (i + 1 != raw.size()) {
          *msg = "garbage after closing quote in string value";
          return false;
        }
        *out = Value(std::move(s));
        return true;
      }
      if (c == '\\') {
        if (i + 1 >= raw.size()) {
          *msg = "dangling escape in string value";
          return false;
        }
        const char e = raw[i + 1];
        switch (e) {
          case '\\':
            s.push_back('\\');
            break;
          case '"':
            s.push_back('"');
            break;
          case 't':
            s.push_back('\t');
            break;
          case 'n':
            s.push_back('\n');
            break;
          case 'r':
            s.push_back('\r');
            break;
          default:
            *msg = std::string("unknown escape \\") + e + " in string value";
            return false;
        }
        i += 2;
        continue;
      }
      s.push_back(c);
      ++i;
    }
    *msg = "unterminated string value";
    return false;
  }
  auto n = ParseInt64(raw);
  if (!n) {
    *msg = "bad integer attr value " + std::string(raw);
    return false;
  }
  *out = Value(*n);
  return true;
}

/// Parses one stripped, non-comment line into the shard. `line` is the
/// shard-local line number for edge records (endpoint validation is
/// deferred to the merge, which needs the final node count).
Status ParseRecord(std::string_view sv, size_t line,
                   std::vector<std::string_view>* fields, Shard* shard) {
  SplitFields(sv, '\t', fields);
  const std::string_view kind = (*fields)[0];
  if (kind == "N") {
    if (fields->size() < 2) return Status::Corruption("node record missing label");
    const std::string_view label = (*fields)[1];
    if (!ValidTsvName(label, /*is_attr=*/false)) {
      return Status::Corruption("bad node label \"" + std::string(label) +
                                "\"");
    }
    ParsedNode node;
    node.label = shard->labels.Intern(label);
    node.attr_begin = static_cast<uint32_t>(shard->attrs.size());
    for (size_t i = 2; i < fields->size(); ++i) {
      const std::string_view field = (*fields)[i];
      const size_t eq = field.find('=');
      if (eq == std::string_view::npos) {
        return Status::Corruption("bad attr " + std::string(field));
      }
      const std::string_view name = field.substr(0, eq);
      if (!ValidTsvName(name, /*is_attr=*/true)) {
        return Status::Corruption("bad attr name \"" + std::string(name) +
                                  "\"");
      }
      ParsedAttr attr;
      attr.name = shard->attr_names.Intern(name);
      std::string msg;
      if (!ParseAttrValue(field.substr(eq + 1), &attr.value, &msg)) {
        return Status::Corruption(msg);
      }
      shard->attrs.push_back(std::move(attr));
    }
    node.attr_end = static_cast<uint32_t>(shard->attrs.size());
    shard->nodes.push_back(node);
    return Status::OK();
  }
  if (kind == "E") {
    if (fields->size() != 4) {
      return Status::Corruption("edge record needs 4 fields");
    }
    auto src = ParseInt64((*fields)[1]);
    auto dst = ParseInt64((*fields)[2]);
    if (!src || !dst) return Status::Corruption("bad edge endpoints");
    const std::string_view label = (*fields)[3];
    if (!ValidTsvName(label, /*is_attr=*/false)) {
      return Status::Corruption("bad edge label \"" + std::string(label) +
                                "\"");
    }
    shard->edges.push_back(ParsedEdge{*src, *dst, shard->labels.Intern(label),
                                      static_cast<uint32_t>(line)});
    return Status::OK();
  }
  return Status::Corruption("unknown record type " + std::string(kind));
}

/// Parses one line-aligned chunk into `shard`; records the first error
/// (with its shard-local line) instead of returning early state.
void ParseChunk(std::string_view chunk, Shard* shard) {
  std::vector<std::string_view> fields;
  size_t start = 0;
  size_t line = 0;
  while (start < chunk.size()) {
    size_t end = chunk.find('\n', start);
    if (end == std::string_view::npos) end = chunk.size();
    ++line;
    const std::string_view sv =
        StripWhitespace(chunk.substr(start, end - start));
    start = end + 1;
    if (sv.empty() || sv[0] == '#') continue;
    Status s = ParseRecord(sv, line, &fields, shard);
    if (!s.ok()) {
      shard->error = std::move(s);
      shard->error_line = line;
      shard->num_lines = line;  // lines after the error are not counted
      return;
    }
  }
  shard->num_lines = line;
}

/// Line-aligned chunk boundaries: each boundary is the byte after a '\n'.
std::vector<std::string_view> SplitChunks(std::string_view text,
                                          size_t want_chunks) {
  std::vector<std::string_view> chunks;
  const size_t n = text.size();
  size_t begin = 0;
  for (size_t c = 0; c < want_chunks && begin < n; ++c) {
    size_t target;
    if (c + 1 == want_chunks) {
      target = n;
    } else {
      target = begin + std::max<size_t>(1, (n - begin) / (want_chunks - c));
      // Extend to the byte after the next '\n' (target - 1 >= begin, so a
      // newline immediately before `target` keeps the boundary there).
      const size_t nl = text.find('\n', target - 1);
      target = nl == std::string_view::npos ? n : nl + 1;
    }
    chunks.push_back(text.substr(begin, target - begin));
    begin = target;
  }
  return chunks;
}

}  // namespace

Status WriteGraphText(const Graph& g, std::ostream* os, GraphView view) {
  const auto& schema = *g.schema();
  // Validate every name the emission below will write BEFORE the first
  // byte goes out: a rejected graph must not leave a truncated partial
  // file behind (SaveGraphFile writes straight to the destination).
  // Memoized per dictionary id — names are validated once, not once per
  // record occurrence.
  std::vector<uint8_t> label_state(schema.labels().size(), 0);
  std::vector<uint8_t> attr_state(schema.attrs().size(), 0);
  auto valid_id = [](std::vector<uint8_t>* memo, uint32_t id,
                     const Dictionary& dict, bool is_attr) {
    uint8_t& state = (*memo)[id];
    if (state == 0) {
      state = ValidTsvName(dict.NameOf(id), is_attr) ? 1 : 2;
    }
    return state == 1;
  };
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (!valid_id(&label_state, g.NodeLabel(v), schema.labels(), false)) {
      return Status::InvalidArgument(
          "node " + std::to_string(v) + " label \"" + g.NodeLabelName(v) +
          "\" is not TSV-serializable (empty, whitespace or control chars)");
    }
    for (const auto& [attr, val] : g.Attrs(v)) {
      (void)val;
      if (!valid_id(&attr_state, attr, schema.attrs(), true)) {
        return Status::InvalidArgument(
            "attr name \"" + schema.attrs().NameOf(attr) +
            "\" is not TSV-serializable (empty, whitespace, control chars, "
            "'=' or '\"')");
      }
    }
    for (const auto& e : g.OutEdges(v)) {
      if (!EdgeInView(e.state, view)) continue;
      if (!valid_id(&label_state, e.label, schema.labels(), false)) {
        return Status::InvalidArgument("edge label \"" +
                                       schema.labels().NameOf(e.label) +
                                       "\" is not TSV-serializable");
      }
    }
  }

  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    *os << "N\t" << g.NodeLabelName(v);
    for (const auto& [attr, val] : g.Attrs(v)) {
      *os << '\t' << schema.attrs().NameOf(attr) << '=';
      if (val.is_int()) {
        *os << val.AsInt();
      } else {
        EscapeStringTo(val.AsString(), os);
      }
    }
    *os << "\n";
  }
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (const auto& e : g.OutEdges(v)) {
      if (!EdgeInView(e.state, view)) continue;
      *os << "E\t" << v << "\t" << e.other << "\t"
          << schema.labels().NameOf(e.label) << "\n";
    }
  }
  if (!os->good()) return Status::Internal("stream write failed");
  return Status::OK();
}

Status SaveGraphFile(const Graph& g, const std::string& path,
                     GraphView view) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::NotFound("cannot open " + path);
  return WriteGraphText(g, &out, view);
}

StatusOr<std::unique_ptr<Graph>> ParseGraphText(std::string_view text,
                                                SchemaPtr schema,
                                                const IngestOptions& opts) {
  size_t threads = opts.threads > 0
                       ? static_cast<size_t>(opts.threads)
                       : std::max(1u, std::thread::hardware_concurrency());
  if (text.size() < opts.min_parallel_bytes) threads = 1;
  const std::vector<std::string_view> chunks =
      SplitChunks(text, std::max<size_t>(threads, 1));

  std::vector<Shard> shards(chunks.size());
  if (chunks.size() <= 1) {
    if (!chunks.empty()) ParseChunk(chunks[0], &shards[0]);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(chunks.size());
    for (size_t c = 0; c < chunks.size(); ++c) {
      workers.emplace_back(ParseChunk, chunks[c], &shards[c]);
    }
    for (std::thread& t : workers) t.join();
  }

  // First parse error in file order wins, independent of thread count.
  // (Endpoint-range errors are a later validation phase: they need the
  // final node count, so a parse error anywhere preempts them.)
  size_t line_base = 0;
  for (const Shard& shard : shards) {
    if (!shard.error.ok()) {
      return Status(shard.error.code(),
                    "line " + std::to_string(line_base + shard.error_line) +
                        ": " + shard.error.message());
    }
    line_base += shard.num_lines;
  }

  // Deterministic merge in shard (= file) order: global intern order is
  // the file order of first occurrence, exactly as a sequential parse.
  auto g = std::make_unique<Graph>(schema);
  std::vector<std::vector<LabelId>> label_maps(shards.size());
  std::vector<std::vector<AttrId>> attr_maps(shards.size());
  for (size_t s = 0; s < shards.size(); ++s) {
    label_maps[s].reserve(shards[s].labels.names.size());
    for (const std::string_view name : shards[s].labels.names) {
      label_maps[s].push_back(schema->InternLabel(name));
    }
    attr_maps[s].reserve(shards[s].attr_names.names.size());
    for (const std::string_view name : shards[s].attr_names.names) {
      attr_maps[s].push_back(schema->InternAttr(name));
    }
  }
  for (size_t s = 0; s < shards.size(); ++s) {
    Shard& shard = shards[s];
    for (const ParsedNode& node : shard.nodes) {
      const NodeId v = g->AddNode(label_maps[s][node.label]);
      for (uint32_t i = node.attr_begin; i < node.attr_end; ++i) {
        g->SetAttr(v, attr_maps[s][shard.attrs[i].name],
                   std::move(shard.attrs[i].value));
      }
    }
  }
  // Endpoints are checked in file order up to the first bad one; the edges
  // before it go in through the bulk path. A duplicate among them comes
  // earlier in the file than the bad endpoint, so it is reported first,
  // exactly as an edge-by-edge load would.
  const int64_t num_nodes = static_cast<int64_t>(g->NumNodes());
  size_t num_edges = 0;
  for (const Shard& shard : shards) num_edges += shard.edges.size();
  std::vector<EdgeKey> keys;
  keys.reserve(num_edges);
  auto collect = [&]() -> Status {
    size_t base = 0;
    for (size_t s = 0; s < shards.size(); ++s) {
      for (const ParsedEdge& e : shards[s].edges) {
        auto err = [&](const std::string& msg) {
          return Status::Corruption(
              "line " + std::to_string(base + e.line) + ": " + msg);
        };
        if (e.src < 0 || e.dst < 0) {
          return err("negative edge endpoint (" + std::to_string(e.src) +
                     ", " + std::to_string(e.dst) + ")");
        }
        if (e.src >= num_nodes || e.dst >= num_nodes) {
          return err("edge endpoint out of range (" + std::to_string(e.src) +
                     ", " + std::to_string(e.dst) + "); file declares " +
                     std::to_string(num_nodes) + " nodes");
        }
        keys.push_back(EdgeKey{static_cast<NodeId>(e.src),
                               static_cast<NodeId>(e.dst),
                               label_maps[s][e.label]});
      }
      base += shards[s].num_lines;
    }
    return Status::OK();
  };
  const Status endpoints = collect();
  size_t failed = 0;
  Status added = g->AddEdges(keys, &failed);
  if (!added.ok()) {
    line_base = 0;
    for (const Shard& shard : shards) {
      if (failed < shard.edges.size()) {
        return Status::Corruption(
            "line " + std::to_string(line_base + shard.edges[failed].line) +
            ": " + added.ToString());
      }
      failed -= shard.edges.size();
      line_base += shard.num_lines;
    }
  }
  if (!endpoints.ok()) return endpoints;
  return g;
}

StatusOr<std::unique_ptr<Graph>> ReadGraphText(std::istream* is,
                                               SchemaPtr schema) {
  std::ostringstream ss;
  ss << is->rdbuf();
  return ParseGraphText(ss.str(), std::move(schema));
}

StatusOr<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::Internal("cannot stat " + path);
  in.seekg(0);
  std::string bytes(static_cast<size_t>(size), '\0');
  if (size > 0) in.read(&bytes[0], size);
  if (!in.good() && size > 0) {
    return Status::Internal("read failed for " + path);
  }
  return bytes;
}

StatusOr<std::unique_ptr<Graph>> LoadGraphFile(const std::string& path,
                                               SchemaPtr schema,
                                               const IngestOptions& opts) {
  // One sized bulk read into the buffer the chunked parser slices; no
  // stringstream double-buffering on the production ingest path.
  NGD_ASSIGN_OR_RETURN(std::string text, ReadFileBytes(path));
  return ParseGraphText(text, std::move(schema), opts);
}

}  // namespace ngd
