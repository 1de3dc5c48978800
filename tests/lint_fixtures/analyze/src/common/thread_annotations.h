// Negative fixture: this path mirrors the PRIMITIVE_ALLOWLIST entry, so
// the naked primitive below must NOT be flagged — proving the allowlist
// is keyed on rule_path(), the tail from the last `src/` component.
namespace fixture {

struct Wrapper {
  std::mutex mu_;  // allowlisted file: clean
};

}  // namespace fixture
