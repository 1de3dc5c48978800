// Clean fixture for member types: a member declared with
// HOH_GUARDED_BY(...) has its type recorded like any other member, so a
// call on it enters only that type's functions. Index::merge really
// nests Catalog::mu_ inside Index::mu_; were the std::map merge below
// read as Index::merge, it would close a false Catalog::mu_ <->
// Index::mu_ cycle.
#include <map>
#include <string>

namespace fixture_guarded_member {

struct Catalog;

struct Index {
  common::Mutex mu_;
  int entries_ HOH_GUARDED_BY(mu_) = 0;
  void merge(Catalog& catalog);
};

struct Catalog {
  common::Mutex mu_;
  std::map<std::string, int> names_ HOH_GUARDED_BY(mu_);
  void add(std::map<std::string, int> incoming);
  void touch();
};

void Index::merge(Catalog& catalog) {
  common::MutexLock lock(mu_);
  ++entries_;
  catalog.touch();
}

void Catalog::touch() {
  common::MutexLock lock(mu_);
  names_.clear();
}

void Catalog::add(std::map<std::string, int> incoming) {
  common::MutexLock lock(mu_);
  names_.merge(incoming);
}

}  // namespace fixture_guarded_member
