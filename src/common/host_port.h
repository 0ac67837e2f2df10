#pragma once

#include <cstdint>
#include <string>

#include "common/result.h"

/// \file host_port.h
/// Parsing for the `host:port` endpoint notation shared by every TCP knob in
/// the tree: `--remote-listen` on ddp_cli, `--connect` on ddp_worker and
/// ddp_client, and `--listen` on ddp_server. The transport layer only
/// speaks numeric IPv4 (channel.h: supervisors and workers exchange
/// addresses, not names), so the parser validates the dotted-quad form
/// rather than deferring to a resolver.

namespace ddp {

struct HostPort {
  std::string host;
  uint16_t port = 0;

  std::string ToString() const {
    return host + ":" + std::to_string(port);
  }
};

/// Parses "a.b.c.d:port" with a numeric IPv4 host (four decimal octets,
/// each 0..255, no leading '+'/whitespace) and a decimal port in 0..65535.
/// Port 0 is accepted: listeners use it to request an ephemeral port.
Result<HostPort> ParseHostPort(const std::string& spec);

}  // namespace ddp
