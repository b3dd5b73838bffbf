"""Import-compatibility alias: ``ShardedResultStore`` is
:class:`~repro.campaign.store.ResultStore`.

The key-prefix sharded layout is retired; the one store handles
concurrent writers, ``merge`` and ``gc`` itself.  This name stays
importable for code that still spells it.
"""

from repro.campaign.store import ResultStore as ShardedResultStore

__all__ = ["ShardedResultStore"]
