#include "core/command_plane.hpp"

#include <charconv>
#include <optional>
#include <sstream>
#include <utility>

namespace hsfi::core {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

std::optional<Direction> parse_direction(const std::string& s) {
  if (s == "L") return Direction::kLeftToRight;
  if (s == "R") return Direction::kRightToLeft;
  return std::nullopt;
}

std::optional<std::uint32_t> parse_hex32(const std::string& s) {
  if (s.empty() || s.size() > 8) return std::nullopt;
  std::uint32_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), v, 16);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<std::uint8_t> parse_hex_nibble(const std::string& s) {
  const auto v = parse_hex32(s);
  if (!v || *v > 0xF) return std::nullopt;
  return static_cast<std::uint8_t>(*v);
}

}  // namespace

void OutputGenerator::emit_line(const std::string& line) {
  ++lines_;
  for (const char c : line) spi_.tx_byte(static_cast<std::uint8_t>(c));
  spi_.tx_byte('\r');
  spi_.tx_byte('\n');
}

void OutputGenerator::emit_raw(const std::string& text) {
  std::string line;
  for (const char c : text) {
    if (c == '\n') {
      emit_line(line);
      line.clear();
    } else {
      line += c;
    }
  }
  if (!line.empty()) emit_line(line);
}

void CommandDecoder::feed(std::uint8_t byte) {
  const char c = static_cast<char>(byte);
  if (c == '\r' || c == '\n') {
    if (!line_.empty()) {
      execute(line_);
      line_.clear();
    }
    return;
  }
  if (line_.size() < 256) line_ += c;
}

void CommandDecoder::execute(const std::string& line) {
  const auto tok = tokenize(line);
  if (tok.empty()) return;
  const std::string& cmd = tok[0];

  // Direction-free commands first.
  if (cmd == "PING") {
    out_.emit_line("PONG");
    ok();
    return;
  }
  if (cmd == "CLRS") {
    device_.clear_stats();
    ok();
    return;
  }

  if (tok.size() < 2) {
    err("missing direction");
    return;
  }
  const auto dir = parse_direction(tok[1]);
  if (!dir) {
    err("bad direction '" + tok[1] + "'");
    return;
  }

  if (cmd == "INJN") {
    device_.inject_now(*dir);
    ok();
    return;
  }
  if (cmd == "REARM") {
    device_.rearm(*dir);
    ok();
    return;
  }
  if (cmd == "STAT") {
    const auto& fs = device_.fifo_stats(*dir);
    out_.emit_line("chars=" + std::to_string(fs.characters) +
                   " matches=" + std::to_string(fs.matches) +
                   " injections=" + std::to_string(fs.injections) +
                   " forced=" + std::to_string(fs.forced));
    out_.emit_raw(device_.stream_stats(*dir).render());
    ok();
    return;
  }
  if (cmd == "CAPT") {
    out_.emit_raw(device_.capture(*dir).render());
    ok();
    return;
  }

  // The rest mutate the direction's configuration.
  InjectorConfig cfg = device_.config(*dir);
  if (cmd == "MODE") {
    if (tok.size() < 3) return err("missing mode");
    const auto m = parse_match_mode(tok[2]);
    if (!m) return err("bad mode '" + tok[2] + "'");
    cfg.match_mode = *m;
  } else if (cmd == "CORR") {
    if (tok.size() < 3) return err("missing corrupt mode");
    const auto m = parse_corrupt_mode(tok[2]);
    if (!m) return err("bad corrupt mode '" + tok[2] + "'");
    cfg.corrupt_mode = *m;
  } else if (cmd == "CMPD" || cmd == "CMPM" || cmd == "CORD" || cmd == "CORM") {
    if (tok.size() < 3) return err("missing value");
    const auto v = parse_hex32(tok[2]);
    if (!v) return err("bad hex32 '" + tok[2] + "'");
    if (cmd == "CMPD") cfg.compare_data = *v;
    if (cmd == "CMPM") cfg.compare_mask = *v;
    if (cmd == "CORD") cfg.corrupt_data = *v;
    if (cmd == "CORM") cfg.corrupt_mask = *v;
  } else if (cmd == "CMPC" || cmd == "CORC") {
    if (tok.size() < 4) return err("missing nibbles");
    const auto bits = parse_hex_nibble(tok[2]);
    const auto mask = parse_hex_nibble(tok[3]);
    if (!bits || !mask) return err("bad nibble");
    if (cmd == "CMPC") {
      cfg.compare_ctl = *bits;
      cfg.compare_ctl_mask = *mask;
    } else {
      cfg.corrupt_ctl = *bits;
      cfg.corrupt_ctl_mask = *mask;
    }
  } else if (cmd == "LFSR") {
    if (tok.size() < 3) return err("missing mask");
    const auto v = parse_hex32(tok[2]);
    if (!v || *v > 0xFFFF) return err("bad hex16 '" + tok[2] + "'");
    cfg.lfsr_mask = static_cast<std::uint16_t>(*v);
  } else if (cmd == "CMPS") {
    if (tok.size() < 3) return err("missing stride");
    if (tok[2] == "1") {
      cfg.compare_stride = 1;
    } else if (tok[2] == "4") {
      cfg.compare_stride = 4;
    } else {
      return err("bad stride '" + tok[2] + "'");
    }
  } else if (cmd == "CRCR") {
    if (tok.size() < 3) return err("missing ON/OFF");
    if (tok[2] == "ON") {
      cfg.crc_repatch = true;
    } else if (tok[2] == "OFF") {
      cfg.crc_repatch = false;
    } else {
      return err("bad flag '" + tok[2] + "'");
    }
  } else {
    return err("unknown command '" + cmd + "'");
  }

  device_.apply(*dir, cfg);
  ok();
}

CommHandler::CommHandler(sim::Simulator& simulator, Uart& uart,
                         InjectorDevice& device)
    : spi_(uart), output_(spi_), decoder_(device, output_) {
  (void)simulator;
  // Boot-up: configure the UART, then route its receive interrupts to the
  // command decoder.
  uart.configure();
  spi_.on_rx_byte([this](std::uint8_t byte) { decoder_.feed(byte); });
}

SerialControlHost::SerialControlHost(sim::Simulator& simulator, Uart& uart)
    : simulator_(simulator), uart_(uart) {
  uart_.on_rs232_read([this](std::uint8_t byte) { on_byte(byte); });
}

void SerialControlHost::send_command(std::string line, Callback callback) {
  queue_.push_back(PendingCommand{std::move(line), std::move(callback)});
  pump();
}

void SerialControlHost::pump() {
  if (in_flight_ || queue_.empty()) return;
  in_flight_ = true;
  rx_lines_.clear();
  rx_line_.clear();
  const std::string& line = queue_.front().line;
  for (const char c : line) uart_.rs232_write(static_cast<std::uint8_t>(c));
  uart_.rs232_write('\n');
}

void SerialControlHost::on_byte(std::uint8_t byte) {
  const char c = static_cast<char>(byte);
  if (c != '\n') {
    if (c != '\r') rx_line_ += c;
    return;
  }
  if (rx_line_.empty()) return;
  rx_lines_.push_back(rx_line_);
  const bool terminal = rx_line_ == "OK" || rx_line_.rfind("ERR", 0) == 0;
  rx_line_.clear();
  if (!terminal || !in_flight_) return;

  PendingCommand done = std::move(queue_.front());
  queue_.erase(queue_.begin());
  in_flight_ = false;
  ++completed_;
  auto lines = std::move(rx_lines_);
  rx_lines_.clear();
  if (done.callback) done.callback(std::move(lines));
  // Defer the next command to a fresh event so callbacks can enqueue more.
  simulator_.schedule_now([this] { pump(); });
}

}  // namespace hsfi::core
