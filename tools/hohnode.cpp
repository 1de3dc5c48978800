// hohnode — the wire protocol (DESIGN.md §14) between real processes.
//
// The simulator exercises the codec and the socket transport inside one
// process; hohnode splits the roles across genuine OS processes speaking
// the same versioned frames over TCP:
//
//   hohnode rm     --port 7410 --agents 2 --units 100
//   hohnode agent  --connect 127.0.0.1:7410 --name a0 --cores 4
//   hohnode agent  --connect 127.0.0.1:7410 --name a1 --cores 4
//
// The rm role listens, waits for the announced number of agents (and
// optional submitters), dispatches UnitAssign messages up to each
// agent's core capacity, collects UnitResult replies, then sends Bye
// and prints the FNV-1a digest over the sorted completed unit names —
// the same digest hohsim prints for a simulated cell, so a
// multi-process run is checkable against the in-process one.
//
// Roles:
//   rm      listen, dispatch, collect, digest
//   agent   execute units (optionally sleeping duration * --work-scale)
//   submit  stream extra UnitAssign submissions to the rm, then Bye

#include <unistd.h>

#include <poll.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/string_util.h"
#include "net/message.h"
#include "net/ring_buffer.h"
#include "net/socket_util.h"

namespace {

using namespace hoh;

constexpr const char* kUsage = R"(usage:
  hohnode rm     [--host H] [--port P] --agents K [--submitters S]
                 [--units N] [--duration SECS]
  hohnode agent  --connect H:P --name NAME [--cores C] [--work-scale X]
  hohnode submit --connect H:P --name NAME --units N [--duration SECS]

rm listens for K agent and S submitter connections (Hello), dispatches
its own N units plus every submitted unit across the agents (at most
`cores` in flight per agent), and on completion sends Bye to each agent
and prints
    hohnode: <n> units, digest <fnv1a hex>
The digest is FNV-1a over the sorted completed unit names — identical
to hohsim's outputChecksum formula, so the multi-process run can be
diffed against a simulated one.

agent runs units: each UnitAssign is answered with a UnitResult after
sleeping duration * work-scale seconds (default 0: complete instantly).

submit streams N UnitAssign submissions and says Bye.
)";

struct Options {
  std::string role;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string name = "node";
  int agents = 0;
  int submitters = 0;
  int units = 0;
  int cores = 1;
  double duration = 0.0;
  double work_scale = 0.0;
};

std::uint16_t parse_port(const std::string& text) {
  const long v = std::strtol(text.c_str(), nullptr, 10);
  if (v < 0 || v > 65535) {
    throw common::ConfigError("bad port: " + text);
  }
  return static_cast<std::uint16_t>(v);
}

Options parse_options(int argc, char** argv) {
  if (argc < 2) throw common::ConfigError("missing role");
  Options opt;
  opt.role = argv[1];
  auto need = [&](int i) -> std::string {
    if (i + 1 >= argc) {
      throw common::ConfigError(std::string("flag ") + argv[i] +
                                " needs a value");
    }
    return argv[i + 1];
  };
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--host") {
      opt.host = need(i);
    } else if (flag == "--port") {
      opt.port = parse_port(need(i));
    } else if (flag == "--connect") {
      const std::string hp = need(i);
      const std::size_t colon = hp.rfind(':');
      if (colon == std::string::npos) {
        throw common::ConfigError("--connect wants HOST:PORT, got " + hp);
      }
      opt.host = hp.substr(0, colon);
      opt.port = parse_port(hp.substr(colon + 1));
    } else if (flag == "--name") {
      opt.name = need(i);
    } else if (flag == "--agents") {
      opt.agents = std::stoi(need(i));
    } else if (flag == "--submitters") {
      opt.submitters = std::stoi(need(i));
    } else if (flag == "--units") {
      opt.units = std::stoi(need(i));
    } else if (flag == "--cores") {
      opt.cores = std::stoi(need(i));
    } else if (flag == "--duration") {
      opt.duration = std::stod(need(i));
    } else if (flag == "--work-scale") {
      opt.work_scale = std::stod(need(i));
    } else {
      throw common::ConfigError("unknown flag " + flag);
    }
  }
  return opt;
}

// --- rm role ---------------------------------------------------------

struct Conn {
  int fd = -1;
  net::RingBuffer buf;
  bool is_agent = false;
  bool said_hello = false;
  bool done = false;  // submitter sent Bye / agent was told Bye
  std::string name;
  int cores = 1;
  int in_flight = 0;
};

int run_rm(const Options& opt) {
  if (opt.agents < 1) {
    throw common::ConfigError("rm needs --agents >= 1");
  }
  std::uint16_t bound = 0;
  int listen_fd = net::tcp_listen(opt.host, opt.port, &bound);
  std::fprintf(stderr, "hohnode rm: listening on %s:%u, waiting for %d agent(s)",
               opt.host.c_str(), bound, opt.agents);
  std::fprintf(stderr, opt.submitters > 0 ? " + %d submitter(s)\n" : "\n",
               opt.submitters);

  std::vector<Conn> conns;
  std::deque<net::UnitAssign> pending;
  for (int i = 0; i < opt.units; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "unit-%06d", i);
    pending.push_back(net::UnitAssign{name, name, opt.duration});
  }
  std::vector<std::string> completed;
  int agents_connected = 0;
  int submitters_open = 0;
  int submitters_seen = 0;
  bool intake_open = true;  // still expecting connections / submissions

  auto dispatch = [&] {
    // Least-loaded agent first keeps the load even without any
    // global queue state on the agents.
    while (!pending.empty()) {
      Conn* best = nullptr;
      for (auto& c : conns) {
        if (!c.is_agent || c.done || c.in_flight >= c.cores) continue;
        if (best == nullptr || c.in_flight < best->in_flight) best = &c;
      }
      if (best == nullptr) return;
      net::write_frame(best->fd, net::make_envelope(pending.front()));
      pending.pop_front();
      ++best->in_flight;
    }
  };

  for (;;) {
    const bool all_agents_in = agents_connected >= opt.agents;
    const bool all_submitters_done =
        submitters_seen >= opt.submitters && submitters_open == 0;
    if (all_agents_in && all_submitters_done) intake_open = false;
    if (!intake_open && pending.empty()) {
      bool idle = true;
      for (const auto& c : conns) {
        if (c.is_agent && c.in_flight > 0) idle = false;
      }
      if (idle) break;
    }

    std::vector<pollfd> fds;
    if (intake_open) fds.push_back({listen_fd, POLLIN, 0});
    for (const auto& c : conns) {
      if (c.fd >= 0 && !c.done) fds.push_back({c.fd, POLLIN, 0});
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      throw common::ResourceError(std::string("poll: ") +
                                  std::strerror(errno));
    }

    for (const pollfd& p : fds) {
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (p.fd == listen_fd) {
        const int fd = net::tcp_accept(listen_fd);
        if (fd >= 0) {
          Conn c;
          c.fd = fd;
          conns.push_back(std::move(c));
        }
        continue;
      }
      auto it = std::find_if(conns.begin(), conns.end(),
                             [&](const Conn& c) { return c.fd == p.fd; });
      if (it == conns.end()) continue;
      std::uint8_t chunk[4096];
      const ssize_t n = ::read(it->fd, chunk, sizeof(chunk));
      if (n <= 0) {
        if (it->is_agent && it->in_flight > 0) {
          throw common::ResourceError("agent " + it->name +
                                      " died with units in flight");
        }
        if (!it->is_agent && it->said_hello && !it->done) --submitters_open;
        net::close_socket(it->fd);
        it->done = true;
        continue;
      }
      it->buf.append(chunk, static_cast<std::size_t>(n));
      net::Envelope env;
      while (net::pop_frame(it->buf, &env)) {
        if (!it->said_hello) {
          const auto hello = net::open_envelope<net::Hello>(env);
          it->said_hello = true;
          it->name = hello.name;
          if (hello.role == net::Hello::kAgent) {
            it->is_agent = true;
            it->cores = std::max<std::int64_t>(1, hello.cores);
            ++agents_connected;
            std::fprintf(stderr, "hohnode rm: agent %s (%d cores)\n",
                         it->name.c_str(), it->cores);
          } else {
            ++submitters_open;
            ++submitters_seen;
            std::fprintf(stderr, "hohnode rm: submitter %s\n",
                         it->name.c_str());
          }
          continue;
        }
        switch (env.type) {
          case net::MsgType::kUnitAssign: {  // submitter -> rm submission
            pending.push_back(net::open_envelope<net::UnitAssign>(env));
            break;
          }
          case net::MsgType::kUnitResult: {
            const auto result = net::open_envelope<net::UnitResult>(env);
            --it->in_flight;
            if (result.ok) completed.push_back(result.name);
            break;
          }
          case net::MsgType::kBye: {
            if (!it->is_agent) --submitters_open;
            it->done = true;
            break;
          }
          default:
            throw common::StateError(
                std::string("rm: unexpected message ") +
                net::to_string(env.type) + " from " + it->name);
        }
      }
    }
    dispatch();
  }

  for (auto& c : conns) {
    if (c.is_agent && c.fd >= 0) {
      net::write_frame(c.fd, net::make_envelope(net::Bye{}));
      net::close_socket(c.fd);
    }
  }
  net::close_socket(listen_fd);
  std::printf("hohnode: %zu units, digest %s\n", completed.size(),
              common::digest_names(completed).c_str());
  return 0;
}

// --- agent role ------------------------------------------------------

int run_agent(const Options& opt) {
  int fd = net::tcp_connect(opt.host, opt.port);
  net::write_frame(
      fd, net::make_envelope(net::Hello{net::Hello::kAgent, opt.name,
                                        opt.cores}));
  net::RingBuffer buf;
  net::Envelope env;
  std::size_t executed = 0;
  while (net::read_frame(fd, buf, &env)) {
    if (env.type == net::MsgType::kBye) break;
    const auto assign = net::open_envelope<net::UnitAssign>(env);
    if (opt.work_scale > 0.0 && assign.duration > 0.0) {
      ::usleep(static_cast<useconds_t>(assign.duration * opt.work_scale *
                                       1e6));
    }
    ++executed;
    net::write_frame(fd, net::make_envelope(net::UnitResult{
                             assign.unit_id, assign.name, true}));
  }
  net::close_socket(fd);
  std::fprintf(stderr, "hohnode agent %s: %zu unit(s) executed\n",
               opt.name.c_str(), executed);
  return 0;
}

// --- submit role -----------------------------------------------------

int run_submit(const Options& opt) {
  if (opt.units < 1) {
    throw common::ConfigError("submit needs --units >= 1");
  }
  int fd = net::tcp_connect(opt.host, opt.port);
  net::write_frame(fd, net::make_envelope(net::Hello{net::Hello::kSubmitter,
                                                     opt.name, 0}));
  for (int i = 0; i < opt.units; ++i) {
    char name[96];
    std::snprintf(name, sizeof(name), "%s-unit-%06d", opt.name.c_str(), i);
    net::write_frame(fd, net::make_envelope(net::UnitAssign{
                             name, name, opt.duration}));
  }
  net::write_frame(fd, net::make_envelope(net::Bye{}));
  net::close_socket(fd);
  std::fprintf(stderr, "hohnode submit %s: %d unit(s) submitted\n",
               opt.name.c_str(), opt.units);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                      std::strcmp(argv[1], "-h") == 0)) {
      std::printf("%s", kUsage);
      return 0;
    }
    const Options opt = parse_options(argc, argv);
    if (opt.role == "rm") return run_rm(opt);
    if (opt.role == "agent") return run_agent(opt);
    if (opt.role == "submit") return run_submit(opt);
    std::fprintf(stderr, "hohnode: unknown role \"%s\"\n%s",
                 opt.role.c_str(), kUsage);
    return 2;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "hohnode: %s\n", err.what());
    return 1;
  }
}
