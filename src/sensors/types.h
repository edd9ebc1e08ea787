// Shared sensing vocabulary: devices, sensors, usage contexts, traces.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

namespace sy::sensors {

enum class DeviceKind { kSmartphone, kSmartwatch };

// The five sensor modalities the paper scores in Table II.
enum class SensorType {
  kAccelerometer,
  kGyroscope,
  kMagnetometer,
  kOrientation,
  kLight,
};

// The paper's four raw usage contexts (§V-E). Context detection collapses
// {kStationaryUse, kOnTable, kVehicle} into "stationary" vs kMoving.
enum class UsageContext : int {
  kStationaryUse = 0,  // using the phone while sitting/standing still
  kMoving = 1,         // using the phone while walking
  kOnTable = 2,        // phone flat on a table while being used
  kVehicle = 3,        // using the phone on a moving vehicle
};

// The binary context actually used by the authentication models (Table V).
enum class DetectedContext : int { kStationary = 0, kMoving = 1 };

inline DetectedContext collapse_context(UsageContext c) {
  return c == UsageContext::kMoving ? DetectedContext::kMoving
                                    : DetectedContext::kStationary;
}

std::string to_string(DeviceKind kind);
std::string to_string(SensorType sensor);
std::string to_string(UsageContext context);
std::string to_string(DetectedContext context);

inline std::string to_string(DeviceKind kind) {
  return kind == DeviceKind::kSmartphone ? "smartphone" : "smartwatch";
}
inline std::string to_string(SensorType sensor) {
  switch (sensor) {
    case SensorType::kAccelerometer:
      return "accelerometer";
    case SensorType::kGyroscope:
      return "gyroscope";
    case SensorType::kMagnetometer:
      return "magnetometer";
    case SensorType::kOrientation:
      return "orientation";
    case SensorType::kLight:
      return "light";
  }
  return "unknown";
}
inline std::string to_string(UsageContext context) {
  switch (context) {
    case UsageContext::kStationaryUse:
      return "stationary-use";
    case UsageContext::kMoving:
      return "moving";
    case UsageContext::kOnTable:
      return "on-table";
    case UsageContext::kVehicle:
      return "vehicle";
  }
  return "unknown";
}
inline std::string to_string(DetectedContext context) {
  return context == DetectedContext::kStationary ? "stationary" : "moving";
}

struct Vec3 {
  double x{0.0};
  double y{0.0};
  double z{0.0};

  double magnitude() const { return std::sqrt(x * x + y * y + z * z); }
};

// Uniformly sampled tri-axial trace (struct-of-arrays for cache-friendly
// windowed feature extraction).
struct AxisTrace {
  std::vector<double> x, y, z;

  std::size_t size() const { return x.size(); }
  void reserve(std::size_t n) {
    x.reserve(n);
    y.reserve(n);
    z.reserve(n);
  }
  void push_back(const Vec3& v) {
    x.push_back(v.x);
    y.push_back(v.y);
    z.push_back(v.z);
  }
  // Per-sample Euclidean magnitude — the stream the paper's features use.
  std::vector<double> magnitude() const;
  // magnitude()[i], without materializing the stream.
  double magnitude_at(std::size_t i) const {
    return std::sqrt(x[i] * x[i] + y[i] * y[i] + z[i] * z[i]);
  }
  // One axis by index 0..2 (Table II iterates axes).
  const std::vector<double>& axis(int i) const;
};

inline std::vector<double> AxisTrace::magnitude() const {
  std::vector<double> m(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) m[i] = magnitude_at(i);
  return m;
}

inline const std::vector<double>& AxisTrace::axis(int i) const {
  switch (i) {
    case 0:
      return x;
    case 1:
      return y;
    default:
      return z;
  }
}

// Everything one device records during one usage session.
struct Recording {
  DeviceKind device{DeviceKind::kSmartphone};
  UsageContext context{UsageContext::kStationaryUse};
  double sample_rate_hz{50.0};
  double t0_seconds{0.0};

  AxisTrace accel;   // m/s^2, gravity included
  AxisTrace gyro;    // rad/s
  AxisTrace mag;     // microtesla
  AxisTrace orient;  // degrees (azimuth handled as pitch/roll/yaw)
  std::vector<double> light;  // lux

  std::size_t samples() const { return accel.size(); }
  double duration_seconds() const {
    return static_cast<double>(samples()) / sample_rate_hz;
  }
};

}  // namespace sy::sensors
