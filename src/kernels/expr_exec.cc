#include "kernels/expr_exec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "kernels/kernel_types.h"
#include "kernels/lane_ops.h"
#include "tensor/buffer_pool.h"

namespace tqp::kernels {

uint8_t* ExprScratch::EnsureSlot(int i, int64_t bytes) {
  if (static_cast<size_t>(i) >= slots_.size()) {
    slots_.resize(static_cast<size_t>(i) + 1);
  }
  Slot& slot = slots_[static_cast<size_t>(i)];
  if (slot.alloc >= bytes && slot.data != nullptr) return slot.data;
  if (slot.data != nullptr) {
    BufferPool::Global()->Release(slot.data, slot.alloc);
    slot.data = nullptr;
    slot.alloc = 0;
  }
  int64_t alloc = 0;
  uint8_t* mem =
      BufferPool::Global()->Acquire(std::max<int64_t>(bytes, 64), &alloc);
  if (mem == nullptr) return nullptr;
  slot.data = mem;
  slot.alloc = alloc;
  return mem;
}

void ExprScratch::Release() {
  for (Slot& slot : slots_) {
    if (slot.data != nullptr) {
      BufferPool::Global()->Release(slot.data, slot.alloc);
    }
  }
  slots_.clear();
}

namespace {

// Per-lane arithmetic comes from kernels/lane_ops.h — the one definition
// shared with kernels/elementwise.cc — so the fused result is bit-identical
// to node-at-a-time evaluation by construction; this file only owns the
// scalar-broadcast loop forms.

template <typename T, typename Out, typename F>
inline void LoopVV(const T* a, const T* b, Out* o, int64_t n, F f) {
  for (int64_t i = 0; i < n; ++i) o[i] = f(a[i], b[i]);
}
template <typename T, typename Out, typename F>
inline void LoopVS(const T* a, T b, Out* o, int64_t n, F f) {
  for (int64_t i = 0; i < n; ++i) o[i] = f(a[i], b);
}
template <typename T, typename Out, typename F>
inline void LoopSV(T a, const T* b, Out* o, int64_t n, F f) {
  for (int64_t i = 0; i < n; ++i) o[i] = f(a, b[i]);
}
template <typename T, typename Out, typename F>
inline void LoopSS(T a, T b, Out* o, int64_t n, F f) {
  for (int64_t i = 0; i < n; ++i) o[i] = f(a, b);
}

template <typename T, typename Out, typename F>
inline void BinForm(const T* a, bool as, const T* b, bool bs, Out* o,
                    int64_t n, F f) {
  if (as && bs) {
    LoopSS(a[0], b[0], o, n, f);
  } else if (as) {
    LoopSV(a[0], b, o, n, f);
  } else if (bs) {
    LoopVS(a, b[0], o, n, f);
  } else {
    LoopVV(a, b, o, n, f);
  }
}

template <typename T>
Status BinaryExec(BinaryOpKind op, const T* a, bool as, const T* b, bool bs,
                  T* o, int64_t n) {
  return lane::WithBinaryLane<T>(
      op, [&](auto f) { BinForm(a, as, b, bs, o, n, f); });
}

template <typename T>
Status CompareExec(CompareOpKind op, const T* a, bool as, const T* b, bool bs,
                   bool* o, int64_t n) {
  return lane::WithCompareLane<T>(
      op, [&](auto f) { BinForm(a, as, b, bs, o, n, f); });
}

Status LogicalExec(LogicalOpKind op, const bool* a, bool as, const bool* b,
                   bool bs, bool* o, int64_t n) {
  return lane::WithLogicalLane(
      op, [&](auto f) { BinForm(a, as, b, bs, o, n, f); });
}

template <typename T, typename F>
inline void UnForm(const T* a, bool as, T* o, int64_t n, F f) {
  if (as) {
    const T x = a[0];
    for (int64_t i = 0; i < n; ++i) o[i] = f(x);
  } else {
    for (int64_t i = 0; i < n; ++i) o[i] = f(a[i]);
  }
}

template <typename T>
Status UnaryExec(UnaryOpKind op, const T* a, bool as, T* o, int64_t n) {
  return lane::WithUnaryLane<T>(op,
                                [&](auto f) { UnForm(a, as, o, n, f); });
}

template <typename From, typename To>
void CastLanes(const From* a, bool as, To* o, int64_t n) {
  if (as) {
    const To v = lane::CastLane<From, To>(a[0]);
    for (int64_t i = 0; i < n; ++i) o[i] = v;
  } else {
    for (int64_t i = 0; i < n; ++i) o[i] = lane::CastLane<From, To>(a[i]);
  }
}

template <typename From>
Status CastFromExec(DType to, const uint8_t* a, bool as, uint8_t* o, int64_t n) {
  const From* pa = reinterpret_cast<const From*>(a);
  switch (to) {
    case DType::kBool:
      CastLanes<From, bool>(pa, as, reinterpret_cast<bool*>(o), n);
      return Status::OK();
    case DType::kUInt8:
      CastLanes<From, uint8_t>(pa, as, o, n);
      return Status::OK();
    case DType::kInt32:
      CastLanes<From, int32_t>(pa, as, reinterpret_cast<int32_t*>(o), n);
      return Status::OK();
    case DType::kInt64:
      CastLanes<From, int64_t>(pa, as, reinterpret_cast<int64_t*>(o), n);
      return Status::OK();
    case DType::kFloat32:
      CastLanes<From, float>(pa, as, reinterpret_cast<float*>(o), n);
      return Status::OK();
    case DType::kFloat64:
      CastLanes<From, double>(pa, as, reinterpret_cast<double*>(o), n);
      return Status::OK();
  }
  return Status::Internal("expr exec: unknown cast target");
}

Status CastExec(DType from, DType to, const uint8_t* a, bool as, uint8_t* o,
                int64_t n) {
  switch (from) {
    case DType::kBool:
      return CastFromExec<bool>(to, a, as, o, n);
    case DType::kUInt8:
      return CastFromExec<uint8_t>(to, a, as, o, n);
    case DType::kInt32:
      return CastFromExec<int32_t>(to, a, as, o, n);
    case DType::kInt64:
      return CastFromExec<int64_t>(to, a, as, o, n);
    case DType::kFloat32:
      return CastFromExec<float>(to, a, as, o, n);
    case DType::kFloat64:
      return CastFromExec<double>(to, a, as, o, n);
  }
  return Status::Internal("expr exec: unknown cast source");
}

template <typename T>
void WhereLanes(const bool* c, bool cs, const T* a, bool as, const T* b,
                bool bs, T* o, int64_t n) {
  const int64_t sc = cs ? 0 : 1;
  const int64_t sa = as ? 0 : 1;
  const int64_t sb = bs ? 0 : 1;
  for (int64_t i = 0; i < n; ++i) {
    o[i] = c[i * sc] ? a[i * sa] : b[i * sb];
  }
}

template <typename T>
Status GatherSelLanes(const int64_t* sel, int64_t k, const T* data,
                      int64_t data_len, T* o) {
  for (int64_t j = 0; j < k; ++j) {
    const int64_t r = sel[j];
    if (r < 0 || r >= data_len) {
      return Status::IndexError("expr exec: selection index " +
                                std::to_string(r) + " out of range [0, " +
                                std::to_string(data_len) + ")");
    }
    o[j] = data[r];
  }
  return Status::OK();
}

}  // namespace

Status RunExprProgram(const ExprProgram& program,
                      const std::vector<Tensor>& sources, int64_t base_offset,
                      DeviceKind device, ExprScratch* scratch,
                      std::vector<Tensor>* outputs) {
  const std::vector<ExprReg>& regs = program.regs();
  if (sources.size() != program.source_nodes().size()) {
    return Status::Internal("expr exec: source arity mismatch");
  }

  // Bind source lengths into the domain table; every vector source of one
  // domain must agree (the compiler's cardinality claim, checked here).
  std::vector<int64_t>& dom_len = scratch->dom_len;
  dom_len.assign(static_cast<size_t>(program.num_domains()), -1);
  for (size_t r = 0; r < regs.size(); ++r) {
    const ExprReg& reg = regs[r];
    if (reg.source < 0) continue;
    const Tensor& t = sources[static_cast<size_t>(reg.source)];
    if (!t.defined()) {
      return Status::Internal("expr exec: undefined source tensor");
    }
    if (t.dtype() != reg.dtype) {
      return Status::Internal("expr exec: source dtype drifted from signature");
    }
    if (reg.scalar) {
      if (t.numel() != 1) {
        return Status::Internal("expr exec: broadcast source no longer 1x1");
      }
    } else {
      if (t.cols() != 1) {
        return Status::Internal("expr exec: vector source not single-column");
      }
      int64_t& len = dom_len[static_cast<size_t>(reg.dom)];
      if (len < 0) {
        len = t.rows();
      } else if (len != t.rows()) {
        return Status::Invalid("expr exec: fused run sources disagree on rows");
      }
    }
  }

  // Register byte pointers: constants and sources bind read-only; temps and
  // outputs resolve at their defining write (slots size lazily to the lanes
  // actually written — a post-filter register holds survivors, not a full
  // morsel).
  std::vector<const uint8_t*>& ptr = scratch->ptr;
  ptr.assign(regs.size(), nullptr);
  std::vector<Tensor>& materialized = scratch->materialized;
  materialized.clear();
  materialized.resize(regs.size());
  for (size_t r = 0; r < regs.size(); ++r) {
    const ExprReg& reg = regs[r];
    if (reg.konst >= 0) {
      ptr[r] = static_cast<const uint8_t*>(
          program.constants()[static_cast<size_t>(reg.konst)].raw_data());
    } else if (reg.source >= 0) {
      ptr[r] = static_cast<const uint8_t*>(
          sources[static_cast<size_t>(reg.source)].raw_data());
    }
  }

  const auto scalar_of = [&](int r) {
    return regs[static_cast<size_t>(r)].scalar;
  };
  const auto check_lanes = [&](int r, int64_t n) {
    const ExprReg& reg = regs[static_cast<size_t>(r)];
    if (reg.scalar) return true;
    return dom_len[static_cast<size_t>(reg.dom)] == n;
  };

  for (const ExprInstr& instr : program.instrs()) {
    const int64_t n =
        instr.dom >= 0 ? dom_len[static_cast<size_t>(instr.dom)] : 1;
    if (n < 0) {
      return Status::Internal("expr exec: instruction over unbound domain");
    }
    const ExprReg& dreg = regs[static_cast<size_t>(instr.dst)];
    uint8_t* dst = nullptr;
    if (instr.code == ExprOpCode::kSelVec) {
      // Sized inside the case: the selection vector holds survivor lanes,
      // counted first exactly as kernels::Nonzero does.
    } else if (dreg.output >= 0) {
      TQP_ASSIGN_OR_RETURN(Tensor t, Tensor::Empty(dreg.dtype, n, 1, device));
      dst = static_cast<uint8_t*>(t.raw_mutable_data());
      materialized[static_cast<size_t>(instr.dst)] = std::move(t);
      ptr[static_cast<size_t>(instr.dst)] = dst;
    } else {
      dst = scratch->EnsureSlot(dreg.slot, n * DTypeSize(dreg.dtype));
      if (dst == nullptr) {
        return Status::OutOfMemory("expr exec: register slot allocation");
      }
      ptr[static_cast<size_t>(instr.dst)] = dst;
    }
    // Positional lane semantics require equal lengths on every vector
    // operand (the kernels would raise a broadcast error here too).
    for (int op : {instr.a, instr.b, instr.c}) {
      if (op >= 0 && instr.code != ExprOpCode::kGatherSel &&
          !check_lanes(op, n)) {
        return Status::Invalid("expr exec: operand rows diverge in fused run");
      }
    }
    const uint8_t* pa =
        instr.a >= 0 ? ptr[static_cast<size_t>(instr.a)] : nullptr;
    const uint8_t* pb =
        instr.b >= 0 ? ptr[static_cast<size_t>(instr.b)] : nullptr;
    const uint8_t* pc =
        instr.c >= 0 ? ptr[static_cast<size_t>(instr.c)] : nullptr;
    switch (instr.code) {
      case ExprOpCode::kBinary: {
        const auto kind = static_cast<BinaryOpKind>(instr.kind);
        const bool as = scalar_of(instr.a);
        const bool bs = scalar_of(instr.b);
        switch (instr.dtype) {
          case DType::kInt32:
            TQP_RETURN_NOT_OK(BinaryExec<int32_t>(
                kind, reinterpret_cast<const int32_t*>(pa), as,
                reinterpret_cast<const int32_t*>(pb), bs,
                reinterpret_cast<int32_t*>(dst), n));
            break;
          case DType::kInt64:
            TQP_RETURN_NOT_OK(BinaryExec<int64_t>(
                kind, reinterpret_cast<const int64_t*>(pa), as,
                reinterpret_cast<const int64_t*>(pb), bs,
                reinterpret_cast<int64_t*>(dst), n));
            break;
          case DType::kFloat32:
            TQP_RETURN_NOT_OK(BinaryExec<float>(
                kind, reinterpret_cast<const float*>(pa), as,
                reinterpret_cast<const float*>(pb), bs,
                reinterpret_cast<float*>(dst), n));
            break;
          case DType::kFloat64:
            TQP_RETURN_NOT_OK(BinaryExec<double>(
                kind, reinterpret_cast<const double*>(pa), as,
                reinterpret_cast<const double*>(pb), bs,
                reinterpret_cast<double*>(dst), n));
            break;
          default:
            return Status::Internal("expr exec: binary over unsupported dtype");
        }
        break;
      }
      case ExprOpCode::kCompare: {
        const auto kind = static_cast<CompareOpKind>(instr.kind);
        const bool as = scalar_of(instr.a);
        const bool bs = scalar_of(instr.b);
        bool* po = reinterpret_cast<bool*>(dst);
        switch (instr.in_dtype) {
          case DType::kUInt8:
            TQP_RETURN_NOT_OK(CompareExec<uint8_t>(kind, pa, as, pb, bs, po, n));
            break;
          case DType::kInt32:
            TQP_RETURN_NOT_OK(CompareExec<int32_t>(
                kind, reinterpret_cast<const int32_t*>(pa), as,
                reinterpret_cast<const int32_t*>(pb), bs, po, n));
            break;
          case DType::kInt64:
            TQP_RETURN_NOT_OK(CompareExec<int64_t>(
                kind, reinterpret_cast<const int64_t*>(pa), as,
                reinterpret_cast<const int64_t*>(pb), bs, po, n));
            break;
          case DType::kFloat32:
            TQP_RETURN_NOT_OK(CompareExec<float>(
                kind, reinterpret_cast<const float*>(pa), as,
                reinterpret_cast<const float*>(pb), bs, po, n));
            break;
          case DType::kFloat64:
            TQP_RETURN_NOT_OK(CompareExec<double>(
                kind, reinterpret_cast<const double*>(pa), as,
                reinterpret_cast<const double*>(pb), bs, po, n));
            break;
          default:
            return Status::Internal("expr exec: compare over unsupported dtype");
        }
        break;
      }
      case ExprOpCode::kLogical:
        TQP_RETURN_NOT_OK(LogicalExec(
            static_cast<LogicalOpKind>(instr.kind),
            reinterpret_cast<const bool*>(pa), scalar_of(instr.a),
            reinterpret_cast<const bool*>(pb), scalar_of(instr.b),
            reinterpret_cast<bool*>(dst), n));
        break;
      case ExprOpCode::kUnary: {
        const auto kind = static_cast<UnaryOpKind>(instr.kind);
        if (kind == UnaryOpKind::kNot) {
          UnForm(reinterpret_cast<const bool*>(pa), scalar_of(instr.a),
                 reinterpret_cast<bool*>(dst), n,
                 [](bool x) { return lane::NotLane(x); });
          break;
        }
        const bool as = scalar_of(instr.a);
        switch (instr.dtype) {
          case DType::kInt32:
            TQP_RETURN_NOT_OK(UnaryExec<int32_t>(
                kind, reinterpret_cast<const int32_t*>(pa), as,
                reinterpret_cast<int32_t*>(dst), n));
            break;
          case DType::kInt64:
            TQP_RETURN_NOT_OK(UnaryExec<int64_t>(
                kind, reinterpret_cast<const int64_t*>(pa), as,
                reinterpret_cast<int64_t*>(dst), n));
            break;
          case DType::kFloat32:
            TQP_RETURN_NOT_OK(UnaryExec<float>(
                kind, reinterpret_cast<const float*>(pa), as,
                reinterpret_cast<float*>(dst), n));
            break;
          case DType::kFloat64:
            TQP_RETURN_NOT_OK(UnaryExec<double>(
                kind, reinterpret_cast<const double*>(pa), as,
                reinterpret_cast<double*>(dst), n));
            break;
          default:
            return Status::Internal("expr exec: unary over unsupported dtype");
        }
        break;
      }
      case ExprOpCode::kCast:
        TQP_RETURN_NOT_OK(CastExec(instr.in_dtype, instr.dtype, pa,
                                   scalar_of(instr.a), dst, n));
        break;
      case ExprOpCode::kWhere: {
        const bool cs = scalar_of(instr.a);
        const bool as = scalar_of(instr.b);
        const bool bs = scalar_of(instr.c);
        const bool* pcnd = reinterpret_cast<const bool*>(pa);
        switch (instr.dtype) {
          case DType::kBool:
            WhereLanes(pcnd, cs, reinterpret_cast<const bool*>(pb), as,
                       reinterpret_cast<const bool*>(pc), bs,
                       reinterpret_cast<bool*>(dst), n);
            break;
          case DType::kUInt8:
            WhereLanes(pcnd, cs, pb, as, pc, bs, dst, n);
            break;
          case DType::kInt32:
            WhereLanes(pcnd, cs, reinterpret_cast<const int32_t*>(pb), as,
                       reinterpret_cast<const int32_t*>(pc), bs,
                       reinterpret_cast<int32_t*>(dst), n);
            break;
          case DType::kInt64:
            WhereLanes(pcnd, cs, reinterpret_cast<const int64_t*>(pb), as,
                       reinterpret_cast<const int64_t*>(pc), bs,
                       reinterpret_cast<int64_t*>(dst), n);
            break;
          case DType::kFloat32:
            WhereLanes(pcnd, cs, reinterpret_cast<const float*>(pb), as,
                       reinterpret_cast<const float*>(pc), bs,
                       reinterpret_cast<float*>(dst), n);
            break;
          case DType::kFloat64:
            WhereLanes(pcnd, cs, reinterpret_cast<const double*>(pb), as,
                       reinterpret_cast<const double*>(pc), bs,
                       reinterpret_cast<double*>(dst), n);
            break;
        }
        break;
      }
      case ExprOpCode::kSelVec: {
        const bool* pm = reinterpret_cast<const bool*>(pa);
        int64_t k = 0;
        for (int64_t i = 0; i < n; ++i) k += pm[i] ? 1 : 0;
        uint8_t* block = scratch->EnsureSlot(dreg.slot, k * 8);
        if (block == nullptr) {
          return Status::OutOfMemory("expr exec: selection vector allocation");
        }
        ptr[static_cast<size_t>(instr.dst)] = block;
        int64_t* sel = reinterpret_cast<int64_t*>(block);
        int64_t j = 0;
        for (int64_t i = 0; i < n; ++i) {
          if (pm[i]) sel[j++] = i;
        }
        dom_len[static_cast<size_t>(instr.out_dom)] = k;
        break;
      }
      case ExprOpCode::kGatherSel: {
        const int64_t* sel = reinterpret_cast<const int64_t*>(pa);
        const ExprReg& data = regs[static_cast<size_t>(instr.b)];
        const int64_t data_len =
            data.scalar ? 1 : dom_len[static_cast<size_t>(data.dom)];
        switch (DTypeSize(instr.dtype)) {
          case 1:
            TQP_RETURN_NOT_OK(GatherSelLanes(sel, n, pb, data_len, dst));
            break;
          case 4:
            TQP_RETURN_NOT_OK(GatherSelLanes(
                sel, n, reinterpret_cast<const uint32_t*>(pb), data_len,
                reinterpret_cast<uint32_t*>(dst)));
            break;
          case 8:
            TQP_RETURN_NOT_OK(GatherSelLanes(
                sel, n, reinterpret_cast<const uint64_t*>(pb), data_len,
                reinterpret_cast<uint64_t*>(dst)));
            break;
          default:
            return Status::Internal("expr exec: gather over unknown width");
        }
        break;
      }
      case ExprOpCode::kIota: {
        const int64_t* sel = reinterpret_cast<const int64_t*>(pa);
        int64_t* po = reinterpret_cast<int64_t*>(dst);
        for (int64_t j = 0; j < n; ++j) po[j] = sel[j] + base_offset;
        break;
      }
    }
  }

  outputs->clear();
  outputs->reserve(program.output_nodes().size());
  for (size_t k = 0; k < program.output_nodes().size(); ++k) {
    const int r = program.output_regs()[k];
    const ExprReg& reg = regs[static_cast<size_t>(r)];
    if (materialized[static_cast<size_t>(r)].defined()) {
      outputs->push_back(materialized[static_cast<size_t>(r)]);
    } else if (reg.source >= 0) {
      // Alias output (dtype-preserving cast of a bound value).
      outputs->push_back(sources[static_cast<size_t>(reg.source)]);
    } else if (reg.konst >= 0) {
      outputs->push_back(program.constants()[static_cast<size_t>(reg.konst)]);
    } else {
      return Status::Internal("expr exec: output register never materialized");
    }
  }
  // Outputs now hold their own references; don't pin the buffers past this
  // invocation through the reused scratch.
  materialized.clear();
  return Status::OK();
}

}  // namespace tqp::kernels
