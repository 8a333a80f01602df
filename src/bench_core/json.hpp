// Minimal JSON value with writer + parser for the structured bench
// emitters (BENCH_<exp>.json). Self-contained on purpose: the repo has a
// no-new-dependencies policy and the bench schema is small. Objects keep
// insertion order so emitted documents are stable across runs (the golden
// manifests are compared byte for byte).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace byz::bench_core {

class Json {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() noexcept : kind_(Kind::kNull) {}
  Json(std::nullptr_t) noexcept : kind_(Kind::kNull) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) noexcept : kind_(Kind::kBool), bool_(b) {}  // NOLINT
  Json(double v) noexcept : kind_(Kind::kNumber), num_(v) {}  // NOLINT
  Json(int v) noexcept : kind_(Kind::kNumber), num_(v) {}  // NOLINT
  Json(std::int64_t v) noexcept : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}  // NOLINT
  Json(std::uint64_t v) noexcept : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}  // NOLINT
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}  // NOLINT
  Json(const char* s) : kind_(Kind::kString), str_(s) {}  // NOLINT

  [[nodiscard]] static Json array();
  [[nodiscard]] static Json object();

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return num_; }
  [[nodiscard]] const std::string& as_string() const { return str_; }

  /// Array/object element count; 0 for scalars.
  [[nodiscard]] std::size_t size() const noexcept;

  /// Array access + append (converts a null value to an array).
  [[nodiscard]] const Json& at(std::size_t index) const;
  void push_back(Json value);

  /// Object access. operator[] inserts a null member on first use (and
  /// converts a null value to an object); `find` returns nullptr if absent.
  Json& operator[](std::string_view key);
  [[nodiscard]] const Json* find(std::string_view key) const;
  [[nodiscard]] bool contains(std::string_view key) const { return find(key) != nullptr; }
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }
  [[nodiscard]] const std::vector<Json>& elements() const { return elements_; }

  /// Serializes; `indent` = 0 renders compact single-line JSON.
  [[nodiscard]] std::string dump(int indent = 2) const;

  /// Strict-enough parser for the bench schema (no comments, UTF-8 passed
  /// through, \uXXXX decoded). Returns nullopt on malformed input.
  [[nodiscard]] static std::optional<Json> parse(std::string_view text);

  /// Structural equality (numbers compared exactly).
  friend bool operator==(const Json& a, const Json& b);

 private:
  void write(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> elements_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Escapes a string for embedding in JSON output (shared with tests).
[[nodiscard]] std::string json_escape(std::string_view text);

}  // namespace byz::bench_core
