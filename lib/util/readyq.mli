(** Age-ordered ready set with in-place select.

    Models an issue queue's wakeup-select: entries are kept sorted by an
    integer age key (oldest first), and {!select} walks them oldest-first,
    starting as many as the issue width allows. Entries that cannot start
    stay where they are — nothing is popped and re-inserted — so a
    blocked entry keeps its age rank. {!insert}, {!select} and {!clear}
    allocate nothing.

    Keys are expected to be unique (instruction sequence numbers); on
    equal keys, insertion order decides. *)

type 'a t

val create : capacity:int -> 'a t
(** Empty set holding at most [capacity] entries (the issue queue's
    size: a ready entry occupies a queue slot until it starts). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val insert : 'a t -> int -> 'a -> unit
(** [insert t key v] adds [v] at its age rank [key].
    @raise Invalid_argument if the set already holds [capacity]
    entries. *)

val select : 'a t -> width:int -> ('c -> 'a -> bool) -> 'c -> int
(** [select t ~width start ctx] calls [start ctx v] on entries
    oldest-first until [width] calls have returned [true] or the set is
    exhausted, removes the started entries, keeps the others in order,
    and returns the number started. [start] must not insert into [t]. *)

val clear : 'a t -> unit
