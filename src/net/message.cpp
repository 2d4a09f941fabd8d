#include "net/message.hpp"

#include <sstream>

namespace dsmr::net {

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kPutData: return "PUT_DATA";
    case MsgType::kPutAck: return "PUT_ACK";
    case MsgType::kGetRequest: return "GET_REQ";
    case MsgType::kGetResponse: return "GET_RESP";
    case MsgType::kLockRequest: return "LOCK_REQ";
    case MsgType::kLockGrant: return "LOCK_GRANT";
    case MsgType::kUnlock: return "UNLOCK";
    case MsgType::kClockFetch: return "CLK_FETCH";
    case MsgType::kClockResponse: return "CLK_RESP";
    case MsgType::kClockEvent: return "CLK_EVENT";
    case MsgType::kClockEventAck: return "CLK_EVENT_ACK";
    case MsgType::kLockFetchRequest: return "LOCKFETCH_REQ";
    case MsgType::kLockFetchGrant: return "LOCKFETCH_GRANT";
    case MsgType::kPutCommit: return "PUT_COMMIT";
    case MsgType::kPutCommitAck: return "PUT_COMMIT_ACK";
    case MsgType::kGetLockedRequest: return "GETLOCKED_REQ";
    case MsgType::kGetLockedResponse: return "GETLOCKED_RESP";
    case MsgType::kSignal: return "SIGNAL";
  }
  return "?";
}

std::string Message::describe() const {
  std::ostringstream out;
  out << to_string(type) << " P" << src << "->P" << dst << " op=" << op_id
      << " area=" << area << "+" << offset;
  if (!data.empty()) out << " bytes=" << data.size();
  if (!clock.empty()) out << " clk=" << clock.to_string();
  return out.str();
}

}  // namespace dsmr::net
