#pragma once

#include <cstdint>
#include <string>

#include "net/message.h"
#include "net/ring_buffer.h"

/// \file socket_util.h
/// Blocking TCP helpers for the hohnode multi-process roles
/// (tools/hohnode.cpp), where a real peer process sits on the other end
/// of the connection: plain blocking sockets, one frame at a time.
/// SocketTransport also listens and dials through them before it
/// drives its own non-blocking wire loop. They keep every
/// sockaddr/byte-order call inside src/net/, where the wire-encoding
/// analyzer rule allows them — tools and the rest of src/ speak
/// Envelope, never htons.

namespace hoh::net {

/// Opens a listening TCP socket on host:port (port 0 = ephemeral).
/// Returns the fd and stores the bound port in *bound_port when
/// non-null. Throws ResourceError / ConfigError on failure.
int tcp_listen(const std::string& host, std::uint16_t port,
               std::uint16_t* bound_port);

/// Blocking accept; returns the connected fd, or -1 when the listener
/// was closed / interrupted.
int tcp_accept(int listen_fd);

/// Blocking connect to host:port. Throws ResourceError on failure.
int tcp_connect(const std::string& host, std::uint16_t port);

/// Writes one framed envelope, looping over partial writes. Throws
/// ResourceError when the connection dies mid-write.
void write_frame(int fd, const Envelope& envelope);

/// Blocking read until \p buf holds one complete frame, which is
/// decoded into *out. Returns false on orderly EOF at a frame
/// boundary; throws CodecError on a malformed stream and ResourceError
/// on EOF mid-frame or a read error.
bool read_frame(int fd, RingBuffer& buf, Envelope* out);

/// close() + mark invalid; safe on -1.
void close_socket(int& fd);

}  // namespace hoh::net
