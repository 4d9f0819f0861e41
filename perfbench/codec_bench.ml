(* Per-frame cost of the wire codec on the hot tags: wall time and minor
   words to encode one frame into an outbound queue, and to parse and
   checksum-verify it back.  Payloads come from each registry entry's own
   generator, seeded by the run seed. *)

module Codec = Ics_codec.Codec
module Bq = Ics_codec.Bq

let iters = 200_000

let measure f =
  f ();
  let minor0 = Gc.minor_words () in
  let (), wall = Report.time (fun () -> for _ = 1 to iters do f () done) in
  let minor = Gc.minor_words () -. minor0 in
  (wall *. 1e9 /. float_of_int iters, minor /. float_of_int iters)

let run rep ~seed =
  Ics_core.Codecs.ensure ();
  let rng = Ics_prelude.Rng.create (Int64.of_int (seed + 7)) in
  List.iter
    (fun (tag, layer) ->
      match List.find_opt (fun (e : Codec.entry) -> e.Codec.name = tag) (Codec.entries ()) with
      | None -> Report.problem rep ("no codec registered as " ^ tag)
      | Some e ->
          let payload = e.Codec.gen rng in
          let q = Bq.create 4096 in
          let encode () =
            Bq.clear q;
            ignore (Codec.encode_frame q ~src:0 ~dst:1 ~layer payload : int)
          in
          encode ();
          let frame = Bq.contents q in
          let decode () =
            match Codec.decode_header frame with
            | Error msg -> failwith msg
            | Ok h -> (
                match Codec.decode_body ~pos:Codec.header_bytes frame h with
                | Ok _ -> ()
                | Error msg -> failwith msg)
          in
          (match decode () with
          | () -> ()
          | exception Failure msg -> Report.problem rep (tag ^ " does not round-trip: " ^ msg));
          let enc_ns, enc_words = measure encode in
          let dec_ns, dec_words = measure decode in
          Report.metric rep ("codec.encode_ns." ^ tag) "ns" enc_ns;
          Report.metric rep ("codec.decode_ns." ^ tag) "ns" dec_ns;
          Report.metric rep ("codec.minor_words." ^ tag) "words" (enc_words +. dec_words);
          Report.note rep ("codec." ^ tag)
            (Printf.sprintf "%d-byte frame, minor words encode %.1f decode %.1f"
               (String.length frame) enc_words dec_words))
    Layers.codec_tags
