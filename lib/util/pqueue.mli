(** Mutable binary min-heap keyed by integer priority.

    Used for event ordering and for select logic where the oldest /
    cheapest candidate wins. Ties are broken by insertion order (FIFO),
    which matters for age-ordered instruction select.

    Entries live in parallel arrays (priority, insertion sequence,
    value): {!add} allocates nothing once the heap has reached its
    capacity, and {!top_prio} / {!take} allocate nothing at all. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> int -> 'a -> unit
(** [add t priority v] inserts [v]. Smaller priorities pop first; equal
    priorities pop in insertion order. *)

val top_prio : 'a t -> int
(** Priority of the minimum; raises [Invalid_argument] when empty. *)

val take : 'a t -> 'a
(** Remove and return the minimum's value; raises [Invalid_argument]
    when empty. *)

val clear : 'a t -> unit
