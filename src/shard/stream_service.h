// Former names of the in-process sharded stream service, which is now
// FabricService with no worker endpoints (shard/fabric.h).
//
// The end-to-end benchmark under perfbench/ includes this header and
// names both types. perfbench changes only together with the benchmark
// definition, so the names stay until that next change.

#ifndef CONDENSA_SHARD_STREAM_SERVICE_H_
#define CONDENSA_SHARD_STREAM_SERVICE_H_

#include "shard/fabric.h"

namespace condensa::shard {

using ShardedStreamService = FabricService;
using ShardedStreamConfig = FabricConfig;

}  // namespace condensa::shard

#endif  // CONDENSA_SHARD_STREAM_SERVICE_H_
