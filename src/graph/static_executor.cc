#include "graph/static_executor.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/cancel.h"
#include "graph/eval.h"
#include "graph/op_type.h"
#include "kernels/expr_exec.h"
#include "obs/trace.h"

namespace tqp {

StaticExecutor::StaticExecutor(std::shared_ptr<const TensorProgram> program,
                               ExecOptions options)
    : program_(std::move(program)), options_(options) {
  // Plan: contiguous runs of fusible pointwise nodes become one fused step.
  // Contiguity in topological order guarantees every non-group input is
  // already materialized when the group starts.
  use_counts_ = program_->ComputeUseCounts();
  Step open;
  auto flush = [&]() {
    if (open.node_ids.empty()) return;
    if (open.node_ids.size() > 1) ++num_fusion_groups_;
    steps_.push_back(open);
    open.node_ids.clear();
  };
  for (const OpNode& node : program_->nodes()) {
    if (node.type == OpType::kInput) continue;
    if (IsFusibleElementwise(node.type)) {
      open.node_ids.push_back(node.id);
    } else {
      flush();
      steps_.push_back(Step{{node.id}});
    }
  }
  flush();
  group_fusion_.resize(steps_.size());
}

int StaticExecutor::num_expr_fused_groups() const {
  MutexLock lock(fusion_mu_);
  int n = 0;
  for (const GroupFusionEntry& entry : group_fusion_) {
    if (entry.program != nullptr) ++n;
  }
  return n;
}

Result<std::vector<Tensor>> StaticExecutor::Run(const std::vector<Tensor>& inputs) {
  const TensorProgram& prog = *program_;
  if (inputs.size() != prog.input_nodes().size()) {
    return Status::Invalid("executor expects " +
                           std::to_string(prog.input_nodes().size()) +
                           " inputs, got " + std::to_string(inputs.size()));
  }
  Device* device = GetDevice(options_.device);
  std::vector<Tensor> values(static_cast<size_t>(prog.num_nodes()));
  std::vector<int> remaining = use_counts_;
  for (size_t i = 0; i < inputs.size(); ++i) {
    values[static_cast<size_t>(prog.input_nodes()[i])] = inputs[i];
    if (device->is_simulated() && options_.charge_transfers) {
      device->RecordTransfer(inputs[i].nbytes());
    }
  }
  // Program outputs must survive buffer release.
  std::vector<bool> is_output(static_cast<size_t>(prog.num_nodes()), false);
  for (int id : prog.outputs()) is_output[static_cast<size_t>(id)] = true;

  auto release_inputs = [&](const OpNode& node) {
    for (int in : node.inputs) {
      int& uses = remaining[static_cast<size_t>(in)];
      --uses;
      if (uses <= 0 && !is_output[static_cast<size_t>(in)] &&
          prog.node(in).type != OpType::kInput) {
        values[static_cast<size_t>(in)] = Tensor();  // drop buffer
      }
    }
  };

  for (size_t si = 0; si < steps_.size(); ++si) {
    // Step-boundary cancellation/deadline poll — the serial backends honor
    // the same cooperative contract as the morsel loops.
    TQP_RETURN_NOT_OK(CheckAmbientCancelled());
    const Step& step = steps_[si];
    if (step.node_ids.size() == 1) {
      const OpNode& node = prog.node(step.node_ids[0]);
      TQP_RETURN_NOT_OK(EvalTracedNode(prog, node, &values, device));
      release_inputs(node);
    } else {
      TQP_RETURN_NOT_OK(RunFusedGroup(step, si, &values, device));
      for (int id : step.node_ids) release_inputs(prog.node(id));
    }
  }
  std::vector<Tensor> outputs;
  outputs.reserve(prog.outputs().size());
  for (int id : prog.outputs()) {
    if (!values[static_cast<size_t>(id)].defined()) {
      return Status::Internal("static executor dropped an output tensor");
    }
    outputs.push_back(values[static_cast<size_t>(id)]);
    if (device->is_simulated() && options_.charge_transfers) {
      device->RecordTransfer(outputs.back().nbytes());
    }
  }
  return outputs;
}

std::shared_ptr<const ExprProgram> StaticExecutor::GroupFusionFor(
    const Step& step, size_t step_index, const std::vector<Tensor>& values,
    const std::vector<bool>& in_group) {
  const TensorProgram& prog = *program_;
  // Resolve every external input of the group (inputs of group nodes that
  // are produced outside it) and derive the lowering signature.
  std::unordered_map<int, ExprExternal> externals;
  std::string sig;
  for (int id : step.node_ids) {
    for (int in : prog.node(id).inputs) {
      if (in_group[static_cast<size_t>(in)] || externals.count(in) > 0) {
        continue;
      }
      const bool is_const = prog.node(in).type == OpType::kConstant;
      const Tensor& ext =
          is_const ? prog.constant(static_cast<int>(
                         prog.node(in).attrs.GetInt("const_id")))
                   : values[static_cast<size_t>(in)];
      ExprExternal info;
      info.dtype = ext.dtype();
      info.scalar = ext.numel() == 1;
      info.single_col = ext.cols() == 1;
      info.driver_aligned = !info.scalar;  // same-rows check done by caller
      info.constant = is_const && info.scalar ? &ext : nullptr;
      externals.emplace(in, info);
      sig += std::to_string(in);
      sig.push_back(':');
      sig += std::to_string(static_cast<int>(info.dtype));
      sig.push_back(info.scalar ? 'b' : 'v');
      sig += std::to_string(info.single_col ? 1 : 0);
      sig.push_back('/');
    }
  }

  {
    MutexLock lock(fusion_mu_);
    const GroupFusionEntry& entry = group_fusion_[step_index];
    if (entry.compiled && entry.signature == sig) return entry.program;
  }

  // Cache miss: scan escapes and compile WITHOUT the executor-wide lock, so
  // concurrent Run() calls sharing a cached plan don't serialize on a first
  // execution or signature drift (mirrors PipelinedExecutor::FusionFor).
  // Concurrent compiles of one group are benign — lowering is deterministic
  // per signature.
  // Which group nodes escape (read outside the group or program outputs)?
  std::vector<bool> escapes(static_cast<size_t>(prog.num_nodes()), false);
  for (int id : prog.outputs()) escapes[static_cast<size_t>(id)] = true;
  for (const OpNode& n : prog.nodes()) {
    if (in_group[static_cast<size_t>(n.id)]) continue;
    for (int in : n.inputs) escapes[static_cast<size_t>(in)] = true;
  }
  std::vector<int> required;
  for (int id : step.node_ids) {
    if (escapes[static_cast<size_t>(id)]) required.push_back(id);
  }

  const auto external = [&](int id, ExprExternal* info) {
    auto it = externals.find(id);
    if (it == externals.end()) return false;
    *info = it->second;
    return true;
  };
  ExprFusionPlan plan =
      BuildExprFusionPlan(prog, step.node_ids, required, external);
  // Only a single run covering the whole group runs blocked; a group the
  // lowering covers in part runs node at a time.
  std::shared_ptr<const ExprProgram> fused;
  if (plan.runs.size() == 1 && plan.runs[0].begin == 0 &&
      plan.runs[0].end == step.node_ids.size()) {
    fused = plan.runs[0].program;
  }

  MutexLock lock(fusion_mu_);
  GroupFusionEntry& entry = group_fusion_[step_index];
  entry.compiled = true;
  entry.signature = std::move(sig);
  entry.program = fused;
  return fused;
}

Status StaticExecutor::RunFusedGroup(const Step& step, size_t step_index,
                                     std::vector<Tensor>* values,
                                     Device* device) {
  const TensorProgram& prog = *program_;
  // Determine the shared row domain: every non-scalar external input of the
  // group must agree on the row count, and all tensors must be single-column
  // (the relational expression case). Otherwise fall back to per-node eval.
  std::vector<bool> in_group(static_cast<size_t>(prog.num_nodes()), false);
  for (int id : step.node_ids) in_group[static_cast<size_t>(id)] = true;
  int64_t n_rows = -1;
  bool fallback = false;
  for (int id : step.node_ids) {
    for (int in : prog.node(id).inputs) {
      if (in_group[static_cast<size_t>(in)]) continue;
      Tensor ext = prog.node(in).type == OpType::kConstant
                       ? prog.constant(static_cast<int>(
                             prog.node(in).attrs.GetInt("const_id")))
                       : (*values)[static_cast<size_t>(in)];
      if (!ext.defined()) {
        fallback = true;
        break;
      }
      if (ext.numel() == 1) continue;  // broadcast scalar
      if (ext.cols() != 1) {
        fallback = true;
        break;
      }
      if (n_rows == -1) {
        n_rows = ext.rows();
      } else if (n_rows != ext.rows()) {
        fallback = true;
        break;
      }
    }
    if (fallback) break;
  }
  // Above two blocks, a group runs blocked only as its one compiled
  // ExprProgram. Small inputs, irregular shapes, fusion off and groups the
  // lowering cannot cover all run node at a time over whole columns.
  const int64_t block = options_.fusion_block_rows;
  std::shared_ptr<const ExprProgram> fused;
  if (!fallback && n_rows >= 2 * block && options_.expr_fusion) {
    fused = GroupFusionFor(step, step_index, *values, in_group);
  }
  if (fused == nullptr) {
    for (int id : step.node_ids) {
      TQP_RETURN_NOT_OK(EvalTracedNode(prog, prog.node(id), values, device));
    }
    return Status::OK();
  }

  // The whole fused group is one op span, attributed to its last node.
  const OpNode& last = prog.node(step.node_ids.back());
  obs::TraceSpan op_span("op", OpTypeName(last.type));
  if (op_span.enabled()) {
    op_span.AddArg("node", last.id);
    op_span.SetDetail("fused[" + std::to_string(step.node_ids.size()) +
                      " ops]" + (last.label.empty() ? "" : " " + last.label));
  }

  // Interpret the program per block in a single pass (no per-node block
  // tensors), copying each escaping node's block into its full output.
  kernels::ExprScratch scratch;
  std::vector<Tensor> srcs(fused->source_nodes().size());
  std::vector<Tensor> outs;
  for (int64_t b0 = 0; b0 < n_rows; b0 += block) {
    const int64_t b1 = std::min(n_rows, b0 + block);
    for (size_t si = 0; si < fused->source_nodes().size(); ++si) {
      const int in = fused->source_nodes()[si];
      const Tensor ext =
          prog.node(in).type == OpType::kConstant
              ? prog.constant(static_cast<int>(
                    prog.node(in).attrs.GetInt("const_id")))
              : (*values)[static_cast<size_t>(in)];
      srcs[si] = ext.numel() == 1 ? ext : ext.SliceRows(b0, b1);
    }
    TQP_RETURN_NOT_OK(kernels::RunExprProgram(*fused, srcs, b0, options_.device,
                                              &scratch, &outs));
    for (size_t k = 0; k < fused->output_nodes().size(); ++k) {
      const Tensor& blk = outs[k];
      Tensor& full = (*values)[static_cast<size_t>(fused->output_nodes()[k])];
      if (!full.defined()) {
        // Scalar results of broadcast chains keep scalar shape (the first
        // block spans `block` rows, so the two cases cannot be confused).
        const int64_t out_rows = blk.rows() == (b1 - b0) ? n_rows : blk.rows();
        TQP_ASSIGN_OR_RETURN(full, Tensor::Empty(blk.dtype(), out_rows,
                                                 blk.cols(), blk.device()));
      }
      if (full.rows() == n_rows) {
        std::memcpy(static_cast<uint8_t*>(full.raw_mutable_data()) +
                        b0 * blk.cols() * DTypeSize(blk.dtype()),
                    blk.raw_data(), static_cast<size_t>(blk.nbytes()));
      } else {
        // Broadcast-chain scalar: every block computes the same value.
        std::memcpy(full.raw_mutable_data(), blk.raw_data(),
                    static_cast<size_t>(blk.nbytes()));
      }
    }
  }
  if (device->is_simulated()) {
    // A fused group reads its external inputs and writes escaping outputs
    // once — that is the fusion benefit on a real GPU too (one kernel).
    KernelCost cost;
    for (int id : step.node_ids) {
      for (int in : prog.node(id).inputs) {
        if (!in_group[static_cast<size_t>(in)]) {
          const Tensor& t = (*values)[static_cast<size_t>(in)];
          if (t.defined()) cost.bytes_read += t.nbytes();
        }
      }
      const Tensor& out = (*values)[static_cast<size_t>(id)];
      if (out.defined()) cost.bytes_written += out.nbytes();
      cost.flops += n_rows;
    }
    device->RecordKernel(cost, /*irregular=*/false);
  }
  if (op_span.enabled()) {
    int64_t out_bytes = 0;
    for (int id : step.node_ids) {
      const Tensor& t = (*values)[static_cast<size_t>(id)];
      if (t.defined()) out_bytes += t.nbytes();
    }
    op_span.AddArg("output_bytes", out_bytes);
  }
  return Status::OK();
}

}  // namespace tqp
