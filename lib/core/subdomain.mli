(** Algorithm 1 — FindSubdomains — implemented faithfully.

    The intersection hyperplanes of the object functions partition the
    query-weight domain into subdomains inside which all functions sort
    identically. Algorithm 1 refines the query set one intersection at
    a time (a binary space partitioning of the populated cells only) and
    discards empty subdomains. This module is the exact construction,
    suitable for small-to-moderate inputs and for validating the
    scalable signature-based {!Query_index}; it also records each
    subdomain's boundary intersections, which Section 4.3's update
    procedure consults through a Bloom filter. *)

open Geom

type boundary = { intersection : int; above : bool }
(** One bounding intersection (by index) and which side the subdomain
    lies on. *)

type subdomain = {
  sid : int;
  boundaries : boundary list;
  members : int list;  (** query indices contained in the subdomain *)
}

type t

val find_subdomains :
  intersections:Hyperplane.t array -> points:Vec.t array -> t
(** Run Algorithm 1: partition the [points] (query points) by the
    [intersections]. Points on a hyperplane count as above it, per
    Section 4.1. *)

val of_instance : ?domain:Box.t -> Instance.t -> Hyperplane.t array * t
(** Build every pairwise intersection of the instance's object
    functions (Equation 2) and partition its query points. Quadratic in
    the number of objects — the faithful, small-scale path. When
    [domain] is given (e.g. [Box.unit d] for normalized weights),
    intersections that keep the whole domain on one side are pruned —
    they can never bound a populated subdomain. *)

val subdomains : t -> subdomain list

val count : t -> int

val same_cell : t -> int -> int -> bool
(** Whether two query indices share a subdomain. *)

val boundary_filter : t -> int Bloom.t
(** Bloom filter over (subdomain, intersection) boundary pairs keyed by
    intersection index — Section 4.3's structure for finding the
    subdomains an intersection bounds. Querying it with an intersection
    index answers "might some subdomain use this intersection as a
    boundary?". *)

val locate : t -> intersections:Hyperplane.t array -> Vec.t -> int option
(** Find the existing subdomain whose boundary signs a new point
    satisfies (the Section 4.3 insertion check); [None] when the point
    opens a fresh cell. *)

(** {2 Data updating on the exact structure — Section 4.3}

    These mirror the paper's description on the faithful Algorithm-1
    partition: query points join located cells (or open a new cell);
    new objects extend the partition by splitting only the cells their
    new intersections cross; removed objects merge the cells their
    intersections separated, found through the boundary Bloom filter. *)

val add_point :
  t -> intersections:Hyperplane.t array -> points:Vec.t array -> Vec.t ->
  t * int
(** Insert a query point: locate a candidate cell by its boundaries
    (the cheap Section-4.3 check), verify against a member's full sign
    vector, and otherwise open a fresh cell signed against every
    intersection. [points] is the current point store (for member
    verification). Returns the updated partition and the new point's
    index. *)

val remove_point : t -> int -> t
(** Remove a query point by index (later indices shift down); cells
    left empty are discarded. *)

val split_by : t -> points:Vec.t array -> first_index:int ->
  Hyperplane.t array -> t
(** Continue Algorithm 1 with new intersections (an object insertion):
    each new hyperplane gets index [first_index + i] and splits only
    the populated cells it crosses. [points] are the current query
    points. *)

val merge_removed : t -> points:Vec.t array ->
  kept:Hyperplane.t array -> removed:int list -> remap:(int -> int) -> t
(** An object removal: cells bounded by a removed intersection (checked
    through the Bloom filter) are re-partitioned among themselves by the
    kept intersections — merging exactly the cells the dead
    intersections separated. [remap] renumbers surviving intersection
    indices, [kept] is the remaining intersection array (already
    renumbered). *)
