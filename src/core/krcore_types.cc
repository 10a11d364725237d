#include "core/krcore_types.h"

namespace krcore {

std::string VertexOrderName(VertexOrder o) {
  switch (o) {
    case VertexOrder::kRandom:
      return "random";
    case VertexOrder::kDegree:
      return "degree";
    case VertexOrder::kDelta1:
      return "delta1";
    case VertexOrder::kDelta2:
      return "delta2";
    case VertexOrder::kDelta1ThenDelta2:
      return "delta1-then-delta2";
    case VertexOrder::kLambdaCombo:
      return "lambda*delta1-delta2";
  }
  return "unknown";
}

std::string BranchOrderName(BranchOrder o) {
  switch (o) {
    case BranchOrder::kAdaptive:
      return "adaptive";
    case BranchOrder::kExpandFirst:
      return "expand-first";
    case BranchOrder::kShrinkFirst:
      return "shrink-first";
  }
  return "unknown";
}

std::string SizeBoundName(SizeBoundKind b) {
  switch (b) {
    case SizeBoundKind::kNaive:
      return "|M|+|C|";
    case SizeBoundKind::kColor:
      return "color";
    case SizeBoundKind::kKcore:
      return "kcore";
    case SizeBoundKind::kColorPlusKcore:
      return "color+kcore";
    case SizeBoundKind::kDoubleKcore:
      return "double-kcore";
  }
  return "unknown";
}

void MiningStats::MergeFrom(const MiningStats& other) {
  MergeFields(other, this);
}

}  // namespace krcore
