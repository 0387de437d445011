"""The ledger's five workloads, in the order the suite runs them."""

from ledger.workloads.ingest_week import IngestWeek
from ledger.workloads.query import QueryCold, QueryWarm
from ledger.workloads.serve_mixed import ServeMixed
from ledger.workloads.shard_socket import ShardSocket

WORKLOADS = {
    cls.name: cls
    for cls in (IngestWeek, QueryCold, QueryWarm, ShardSocket, ServeMixed)
}
