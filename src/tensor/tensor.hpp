// Dense row-major float32 tensor with shared ownership.
//
// The tensor library underpins every module in this repository: serial
// reference kernels, the distributed matmul algorithms, and the neural-net
// layers. Tensors are always contiguous; reshape() returns a view that
// shares storage. All shapes use int64_t to avoid overflow in size
// computations at paper-scale dimensions (e.g. 8192 x 32768 weights).
//
// A *shape-only* tensor has a real shape and no storage. Every kernel the
// parallel layers and pdgemm/ call returns a shape-only result for a
// shape-only input, and the communicator sends it as a payload-free message
// of the declared size, so the real layers replay their exact schedule at
// paper scale without allocating it (perf::ScheduleReplay).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace tsr {

/// Shape of a tensor: up to 4 dimensions in practice, stored dynamically.
using Shape = std::vector<std::int64_t>;

/// Number of elements implied by a shape (1 for a scalar / empty shape).
std::int64_t shape_numel(const Shape& shape);

/// Human-readable "[a, b, c]" form for error messages and reports.
std::string shape_to_string(const Shape& shape);

/// Dense, contiguous, row-major float tensor.
///
/// Copying a Tensor is cheap (shared storage); use clone() for a deep copy.
/// The element accessors at() do not bounds-check; they are inline so that
/// loops over them compile to plain indexed loads and stores.
class Tensor {
 public:
  /// An empty tensor (numel() == 0, ndim() == 0).
  Tensor() = default;

  /// Uninitialized tensor of the given shape. Prefer zeros()/full() unless
  /// every element is about to be overwritten.
  explicit Tensor(Shape shape);

  static Tensor zeros(Shape shape);
  static Tensor ones(Shape shape);
  static Tensor full(Shape shape, float value);
  /// Takes ownership of `values` (must match shape_numel(shape)).
  static Tensor from(std::vector<float> values, Shape shape);
  /// Copies `values` into fresh aligned storage (must match shape_numel).
  static Tensor from(std::span<const float> values, Shape shape);
  /// 1-D tensor from an initializer list, convenience for tests.
  static Tensor of(std::initializer_list<float> values);
  /// A tensor of `shape` with no storage (see the file comment).
  static Tensor shape_only(Shape shape);
  /// Uninitialized / zero-filled tensor of `shape` that is shape-only
  /// exactly when `like` is: how kernels allocate their outputs.
  static Tensor empty_as(const Tensor& like, Shape shape);
  static Tensor zeros_as(const Tensor& like, Shape shape);

  const Shape& shape() const { return shape_; }
  std::int64_t ndim() const { return static_cast<std::int64_t>(shape_.size()); }
  /// Size of dimension i; negative i counts from the back.
  std::int64_t dim(std::int64_t i) const {
    if (i < 0) i += ndim();
    if (i < 0 || i >= ndim()) dim_out_of_range();
    return shape_[static_cast<std::size_t>(i)];
  }
  std::int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }
  /// True for a non-empty tensor without storage: data() is null and only
  /// the shape is meaningful.
  bool is_shape_only() const { return data_ == nullptr && numel_ != 0; }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }
  std::span<float> span() { return {data_.get(), static_cast<std::size_t>(numel_)}; }
  std::span<const float> span() const {
    return {data_.get(), static_cast<std::size_t>(numel_)};
  }

  /// Element access (row-major). 1-4 index overloads.
  float& at(std::int64_t i) { return data_[i]; }
  float at(std::int64_t i) const { return data_[i]; }
  float& at(std::int64_t i, std::int64_t j) { return data_[i * shape_[1] + j]; }
  float at(std::int64_t i, std::int64_t j) const {
    return data_[i * shape_[1] + j];
  }
  float& at(std::int64_t i, std::int64_t j, std::int64_t k) {
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }
  float at(std::int64_t i, std::int64_t j, std::int64_t k) const {
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }
  float& at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l) {
    return data_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
  }
  float at(std::int64_t i, std::int64_t j, std::int64_t k,
           std::int64_t l) const {
    return data_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
  }

  /// View with a new shape sharing storage; numel must match.
  Tensor reshape(Shape new_shape) const;
  /// Collapse all leading dimensions: [d0, ..., dk] -> [d0*...*d(k-1), dk].
  /// The canonical "rows x features" view used by matmul-based layers.
  Tensor as_matrix() const;

  /// Deep copy with fresh storage (shape-only stays shape-only).
  Tensor clone() const;
  /// Overwrite all elements with `value` (no-op when shape-only).
  void fill(float value);
  /// Copy elements from `src` (shapes must have equal numel; no-op when
  /// either side is shape-only).
  void copy_from(const Tensor& src);

  /// True if the two tensors share the same storage buffer.
  bool shares_storage_with(const Tensor& other) const {
    return data_ == other.data_;
  }
  /// True if no other Tensor (copy or view) shares this storage, so a
  /// consumer handed this tensor may overwrite it.
  bool sole_owner() const { return data_.use_count() == 1; }

 private:
  [[noreturn]] static void dim_out_of_range();

  Shape shape_;
  std::int64_t numel_ = 0;
  std::shared_ptr<float[]> data_;
};

/// Throwing check used across the library: aborts the computation with
/// std::invalid_argument carrying `what` when `cond` is false. `what` is a
/// plain C string so a passing check allocates nothing; a message that needs
/// formatting is built only in the failing branch
/// (`if (!cond) throw std::invalid_argument(...)`).
void check(bool cond, const char* what);

}  // namespace tsr
