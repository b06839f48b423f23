// udwn_request — command-line client for udwnd (docs/SERVICE.md).
//
// Connects to the daemon's Unix socket, sends one request line per --line
// argument (or every line of stdin when no --line is given), then streams
// responses to stdout until every request has produced its terminal event
// (`summary`, `rejected`, or `status`) or --timeout-ms expires.
//
//   udwn_request --socket PATH [--line '{"type":...}']... [--timeout-ms N]
//
// Exit codes: 0 all requests answered; 1 connect/transport failure;
// 2 timed out waiting, or a response line that is not valid JSON (the CI
// service-smoke step relies on 2 to catch protocol regressions).
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <poll.h>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <vector>

#include "common/env.h"
#include "common/json.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--line JSON]... [--timeout-ms N]\n",
               argv0);
  return 2;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// `summary` and `rejected` end a run request; `status` ends a status
/// request. Anything else (accepted/progress/trial) is streaming noise.
bool is_terminal_event(const std::string& line) {
  std::string error;
  const auto json = udwn::Json::parse(line, &error);
  if (!json.has_value()) {
    std::fprintf(stderr, "udwn_request: invalid response JSON (%s): %s\n",
                 error.c_str(), line.c_str());
    std::exit(2);
  }
  const udwn::Json* event = json->find("event");
  if (event == nullptr) return false;
  const std::string name = event->as_string();
  return name == "summary" || name == "rejected" || name == "status";
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  if (const auto s = udwn::env_string("UDWN_SVC_SOCKET")) socket_path = *s;
  std::vector<std::string> lines;
  long long timeout_ms = 60000;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--line" && i + 1 < argc) {
      lines.emplace_back(argv[++i]);
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      timeout_ms = std::atoll(argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }
  if (socket_path.empty()) return usage(argv[0]);
  if (lines.empty()) {
    std::string line;
    while (std::getline(std::cin, line))
      if (!line.empty()) lines.push_back(line);
  }

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("udwn_request: socket");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "udwn_request: socket path too long\n");
    return 1;
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof addr.sun_path - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    std::perror("udwn_request: connect");
    ::close(fd);
    return 1;
  }

  std::string payload;
  for (const std::string& line : lines) {
    payload += line;
    payload += '\n';
  }
  if (!send_all(fd, payload)) {
    std::perror("udwn_request: send");
    ::close(fd);
    return 1;
  }

  std::size_t terminals = 0;
  std::string buffer;
  char chunk[4096];
  while (terminals < lines.size()) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    if (ready == 0) {
      std::fprintf(stderr, "udwn_request: timed out (%zu/%zu answered)\n",
                   terminals, lines.size());
      ::close(fd);
      return 2;
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      std::perror("udwn_request: poll");
      ::close(fd);
      return 1;
    }
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      std::fprintf(stderr,
                   "udwn_request: connection closed (%zu/%zu answered)\n",
                   terminals, lines.size());
      ::close(fd);
      return 1;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      std::fwrite(line.data(), 1, line.size(), stdout);
      std::fputc('\n', stdout);
      if (is_terminal_event(line)) ++terminals;
    }
    buffer.erase(0, start);
  }
  std::fflush(stdout);
  ::close(fd);
  return 0;
}
