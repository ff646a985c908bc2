(** Grammar-aware fuzzer for the {!Gkm_wire} decoder.

    Frames are generated structurally valid from
    {!Gkm_wire.Grammar.rules} and then mutated — bit flips, header
    length skews, truncations, splices of two valid frames, version
    skews, and field-level poisonings aimed at one grammar field at a
    time (for a varint field: an overlong, an 11-byte, a too-wide or a
    truncated spelling, or a value past its bound). Every candidate is
    pushed through the streaming {!Gkm_wire.Frame.decoder} (whole and re-chunked), through
    {!Gkm_wire.Msg.decode_body} when the header is intact, through
    the sealed-record inner codec, and through
    {!Gkm_wire.Frame.decode_datagram}; the payload of every accepted
    REKEY body goes on through {!Gkm_transport.Packet.decode_payload}
    (the [packet] stage; half of the generated payloads are real
    entry payloads). Multicast datagrams (1-5 grammar-generated
    SEALED frames back to back) are additionally generated whole and
    with one frame poisoned, swapped for another message or cut
    short, since the datagram path sees raw socket bytes with no
    streaming layer in front.

    Two properties are enforced on every candidate:
    + decode never raises — arbitrary bytes may only yield [Error];
    + encode∘decode is a byte fixpoint — an accepted body re-encodes
      to exactly the bytes that were decoded (for the [packet] stage,
      whose codec ignores trailing zero-extension, to the prefix it
      consumed).

    Failures are minimized by greedy chunk deletion and reported as
    {!failure} records; {!run} can persist them to a corpus file for
    check-in (see {!Corpus}). *)

type failure = {
  f_stage : string;  (** which decode path failed *)
  f_kind : [ `Raise of string | `Fixpoint | `Should_accept of string ];
  f_frame : bytes;  (** minimized reproducer *)
  f_origin : string;  (** generator/mutation that produced it *)
}

type report = {
  mutable generated : int;  (** candidate frames checked *)
  mutable accepted : int;  (** candidates the decoder accepted *)
  mutable rejected : int;
  mutable replayed : int;  (** corpus entries replayed *)
  mutable failures : failure list;
  mutable elapsed_s : float;
}

val run :
  ?seed:int ->
  ?frames:int ->
  ?max_seconds:float ->
  ?corpus:Corpus.entry list ->
  ?crashers_out:string ->
  ?progress:(report -> unit) ->
  unit ->
  report
(** Replay [corpus], then generate and check [frames] candidates
    (default 1_000_000), stopping early after [max_seconds] of wall
    clock. Minimized failures are appended to [crashers_out] when
    given. [progress] is called every few thousand frames. *)

val pp_report : Format.formatter -> report -> unit
