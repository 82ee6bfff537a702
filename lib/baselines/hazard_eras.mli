(** Original hazard eras (Ramalhete & Correia 2017), Algorithm 4.

    Readers reserve the current global era in a shared SWMR slot. The
    fence is only paid when the era changed since the slot's previous
    value — less often than HP, but still on the read path. A node is
    freed when no published era intersects its [birth, retire] lifespan.

    Era clock: as in HazardEraPOP, the global era advances by one every
    [epoch_freq] allocations of a thread and at the start of every
    reclamation pass, so each tick can cost a reader one fenced era
    publish. *)

include Pop_core.Smr.S
