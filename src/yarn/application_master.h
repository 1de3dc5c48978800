#pragma once

#include <functional>
#include <string>

#include "yarn/node_manager.h"
#include "yarn/types.h"

/// \file application_master.h
/// The Application Master protocol handle (paper SS-III-C, Fig. 4): "The
/// central component of a YARN application is the Application Master,
/// which is responsible for negotiating resources with the YARN Resource
/// Manager as well as for managing the execution of the application in
/// the assigned resources." The RM creates one AM per application and
/// runs the descriptor's on_am_start once the AM container is up; the AM
/// then requests task containers, launches payloads in them, and
/// unregisters when done.

namespace hoh::yarn {

class ResourceManager;
struct AppRecord;

/// Lives inside its application's RM record and holds that record, so
/// no call below looks the application up. The handle stays valid after
/// the application finished until the RM evicts the record from its
/// window of finished applications: a holder lets go of it in the
/// application's on_finished.
class ApplicationMaster {
 public:
  ApplicationMaster(ResourceManager& rm, AppRecord& app)
      : rm_(rm), app_(app) {}

  ApplicationMaster(const ApplicationMaster&) = delete;
  ApplicationMaster& operator=(const ApplicationMaster&) = delete;

  const std::string& app_id() const;

  /// Asks the RM for \p count containers; \p on_allocated fires once per
  /// grant (possibly over several scheduler passes).
  void request_containers(int count, const ContainerRequest& request,
                          std::function<void(const Container&)> on_allocated);

  /// Starts an allocated container; \p on_running fires after the NM's
  /// launch latency.
  void launch(const std::string& container_id,
              std::function<void()> on_running);

  /// Reports a container's payload finished; resources return to the NM.
  void complete_container(const std::string& container_id);

  /// Kills a container (e.g. payload hung).
  void kill_container(const std::string& container_id);

  /// Unregisters the AM: finishes the application, releasing everything.
  void unregister(bool success = true);

  /// Callback invoked when the scheduler preempts one of this app's
  /// containers (paper SS-III-B: "allocated resources ... can be
  /// preempted by the scheduler").
  void on_preempted(std::function<void(const Container&)> callback) {
    preempted_callback_ = std::move(callback);
  }

 private:
  friend class ResourceManager;

  ResourceManager& rm_;
  AppRecord& app_;
  std::function<void(const Container&)> preempted_callback_;
};

}  // namespace hoh::yarn
