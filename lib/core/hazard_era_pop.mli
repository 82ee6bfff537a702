(** HazardEraPOP: hazard eras with publish-on-ping (Algorithm 5).

    Like hazard eras, readers reserve the current global era rather than
    individual pointers, and nodes record their birth and retire eras;
    like POP, the reservation is kept thread-private (plain store, no
    fence — and no fence even when the era changed under the read, which
    is where original HE pays one) and only published when a reclaimer
    pings. A retired node is freed when no published era intersects its
    [birth, retire] lifespan.

    Era clock: the global era advances by one every [epoch_freq]
    allocations of a thread and at the start of every reclamation pass.
    Nodes retired since the last pass therefore span several eras, and a
    peer reserving the current era pins only the newest of them. *)

include Smr.S
