// Negative fixture: a tenant-file mutex paired with a guard annotation
// is fine, whether it is a class member or at namespace scope.
namespace fixture {

struct GatewayOk {
  common::Mutex mu_;
  int queued_ HOH_GUARDED_BY(mu_) = 0;
};

common::Mutex g_stats_mu;
int g_stats HOH_GUARDED_BY(g_stats_mu) = 0;

}  // namespace fixture
