#include "stream/value.h"

#include <charconv>

#include "util/logging.h"

namespace punctsafe {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

void Value::SetString(const char* data, uint32_t len, size_t hash) {
  len_ = len;
  hash_ = hash;
  if (len <= kInlineStringCap) {
    mode_ = Mode::kInlineStr;
    if (len > 0) std::memcpy(payload_.inline_str, data, len);
  } else {
    mode_ = Mode::kOwnedStr;
    payload_.owned_str = new char[len];
    std::memcpy(payload_.owned_str, data, len);
  }
}

Value Value::ExternalString(const char* data, uint32_t len, size_t hash) {
  Value v;
  v.len_ = len;
  v.hash_ = hash;
  if (len <= kInlineStringCap) {
    v.mode_ = Mode::kInlineStr;
    if (len > 0) std::memcpy(v.payload_.inline_str, data, len);
  } else {
    v.mode_ = Mode::kExternalStr;
    v.payload_.external_str = data;
  }
  return v;
}

void Value::FreeOwned() noexcept { delete[] payload_.owned_str; }

int64_t Value::AsInt64() const {
  PUNCTSAFE_CHECK(type() == ValueType::kInt64)
      << "AsInt64 on " << ValueTypeToString(type());
  return payload_.i;
}

double Value::AsDouble() const {
  PUNCTSAFE_CHECK(type() == ValueType::kDouble)
      << "AsDouble on " << ValueTypeToString(type());
  return payload_.d;
}

std::string_view Value::AsString() const {
  PUNCTSAFE_CHECK(type() == ValueType::kString)
      << "AsString on " << ValueTypeToString(type());
  return string_view();
}

void Value::AppendTo(std::string* out) const {
  // Room for any int64 (20 chars) and any %g-style double with six
  // significant digits ("-1.23457e-308" is 13).
  char buf[32];
  char* end = buf;
  switch (type()) {
    case ValueType::kNull:
      out->append("null");
      return;
    case ValueType::kInt64:
      end = std::to_chars(buf, buf + sizeof(buf), payload_.i).ptr;
      break;
    case ValueType::kDouble:
      // Precision 6 in general format is exactly what a default
      // std::ostream renders (%g), including "inf", "-inf", "nan"
      // and "-0".
      end = std::to_chars(buf, buf + sizeof(buf), payload_.d,
                          std::chars_format::general, 6)
                .ptr;
      break;
    case ValueType::kString:
      out->push_back('"');
      out->append(string_view());
      out->push_back('"');
      return;
  }
  out->append(buf, end);
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

}  // namespace punctsafe
