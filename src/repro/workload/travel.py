"""Travel-booking workload (the paper's motivating example).

"In the case of a travel application for instance, the request typically
indicates a travel destination, the travel dates, together with some
information about hotel category, the size of a car to rent, etc.  A
corresponding result typically contains information about a flight
reservation, a hotel name and address, the name of a car company."

The workload keeps seat/room/car inventories in the database and books one of
each per request.  When some leg is sold out, the business logic returns a
``sold_out`` result -- the paper's user-level abort, which is a *regular*
result value (the user is told about the problem) rather than a protocol
failure.

Sharding.  With ``shard_tags=True`` every key of a destination carries that
destination as its placement hash tag (``flight:{PAR}:seats``), so all of a
city's inventory is colocated on one shard and a single-city booking is a
single-shard transaction; the booking counter becomes per-city for the same
reason.  :meth:`TravelWorkload.sharded_requests` mixes single-city bookings
with two-city *tours* (flight at each city) at a tunable cross-shard
fraction.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Callable

from repro.core.sharding import Sharding
from repro.core.types import Request

BOOK_TRIP = "book_trip"
BOOK_TOUR = "book_tour"


class TravelWorkload:
    """Flights, hotels and rental cars with finite inventory."""

    def __init__(self, destinations: tuple[str, ...] = ("PAR", "NYC", "TYO"),
                 seats_per_flight: int = 5, rooms_per_hotel: int = 5,
                 cars_per_city: int = 5, shard_tags: bool = False):
        if not destinations:
            raise ValueError("need at least one destination")
        self.destinations = tuple(destinations)
        self.seats_per_flight = seats_per_flight
        self.rooms_per_hotel = rooms_per_hotel
        self.cars_per_city = cars_per_city
        self.shard_tags = shard_tags

    # ------------------------------------------------------------------- keys

    def _tag(self, city: str) -> str:
        return f"{{{city}}}" if self.shard_tags else city

    def seats_key(self, city: str) -> str:
        """Inventory key of the flight seats to ``city``."""
        return f"flight:{self._tag(city)}:seats"

    def rooms_key(self, city: str) -> str:
        """Inventory key of the hotel rooms in ``city``."""
        return f"hotel:{self._tag(city)}:rooms"

    def cars_key(self, city: str) -> str:
        """Inventory key of the rental cars in ``city``."""
        return f"car:{self._tag(city)}:available"

    def bookings_key(self, city: str) -> str:
        """Key of the booking counter (per city when sharded, else global)."""
        return f"bookings:{self._tag(city)}:count" if self.shard_tags else "bookings:count"

    def city_keys(self, city: str) -> list[str]:
        """Every key a single-city booking may touch."""
        return [self.seats_key(city), self.rooms_key(city), self.cars_key(city),
                self.bookings_key(city)]

    # ------------------------------------------------------------------- data

    def initial_data(self) -> dict[str, Any]:
        """Initial inventory: seats, rooms and cars per destination."""
        data: dict[str, Any] = {}
        for city in self.destinations:
            data[self.seats_key(city)] = self.seats_per_flight
            data[self.rooms_key(city)] = self.rooms_per_hotel
            data[self.cars_key(city)] = self.cars_per_city
            data[self.bookings_key(city)] = 0
        return data

    # --------------------------------------------------------------- requests

    def book(self, destination: str, traveller: str = "guest",
             need_car: bool = True, participants: tuple[str, ...] = ()) -> Request:
        """A request booking flight + hotel (+ optional car) to ``destination``."""
        if destination not in self.destinations:
            raise ValueError(f"unknown destination {destination!r}")
        return Request(BOOK_TRIP, {"destination": destination, "traveller": traveller,
                                   "need_car": need_car}, participants=participants)

    def tour(self, cities: tuple[str, ...], traveller: str = "guest",
             participants: tuple[str, ...] = ()) -> Request:
        """A request booking one flight leg in each of ``cities`` atomically.

        This is the workload's cross-shard transaction: with sharded keys and
        cities on different shards, every leg's shard takes part in one
        atomic commit.
        """
        for city in cities:
            if city not in self.destinations:
                raise ValueError(f"unknown destination {city!r}")
        if len(cities) < 2:
            raise ValueError("a tour needs at least two cities")
        return Request(BOOK_TOUR, {"cities": tuple(cities), "traveller": traveller},
                       participants=participants)

    def sharded_requests(self, sharding: Sharding, cross_shard_fraction: float = 0.0,
                         seed: int = 0) -> Callable[[], Request]:
        """A deterministic factory mixing single-city bookings and tours.

        With probability ``cross_shard_fraction`` (and at least two shards
        holding destinations) the next request is a two-city tour across
        shards; otherwise a single-city booking.  Every request carries the
        participant set of the keys it touches.
        """
        if not 0.0 <= cross_shard_fraction <= 1.0:
            raise ValueError("cross_shard_fraction must be within [0, 1]")
        by_shard: dict[str, list[str]] = {}
        for city in self.destinations:
            owner = sharding.owner(self.seats_key(city))
            by_shard.setdefault(owner if owner is not None else "*", []).append(city)
        populated = [cities for cities in by_shard.values() if cities]
        rng = random.Random(zlib.crc32(f"{seed}\x00travel-shard-mix".encode("utf-8")))
        counter = [0]

        def next_request() -> Request:
            counter[0] += 1
            traveller = f"traveller-{counter[0]}"
            cross = (cross_shard_fraction > 0 and len(populated) >= 2
                     and rng.random() < cross_shard_fraction)
            if cross:
                first, second = rng.sample(range(len(populated)), 2)
                cities = (rng.choice(populated[first]), rng.choice(populated[second]))
                keys = [key for city in cities for key in
                        (self.seats_key(city), self.bookings_key(city))]
                return self.tour(cities, traveller,
                                 participants=sharding.participants(keys))
            city = rng.choice(populated[rng.randrange(len(populated))])
            return self.book(city, traveller, need_car=rng.random() < 0.7,
                             participants=sharding.participants(self.city_keys(city)))

        return next_request

    # --------------------------------------------------------- business logic

    def business_logic(self, request: Request) -> Callable[[Any], Any]:
        """Reserve inventory atomically for a booking or a tour."""
        if request.operation == BOOK_TRIP:
            return self._book_logic(request)
        if request.operation == BOOK_TOUR:
            return self._tour_logic(request)
        raise ValueError(f"unknown travel operation {request.operation!r}")

    def _book_logic(self, request: Request) -> Callable[[Any], Any]:
        destination = request.params["destination"]
        traveller = request.params["traveller"]
        need_car = request.params.get("need_car", False)

        def logic(view: Any) -> Any:
            seats = view.read(self.seats_key(destination), 0)
            rooms = view.read(self.rooms_key(destination), 0)
            cars = view.read(self.cars_key(destination), 0)
            if seats <= 0 or rooms <= 0 or (need_car and cars <= 0):
                # User-level abort: a regular result value (the paper's model).
                return {"status": "sold_out", "destination": destination,
                        "seats": seats, "rooms": rooms, "cars": cars}
            view.write(self.seats_key(destination), seats - 1)
            view.write(self.rooms_key(destination), rooms - 1)
            if need_car:
                view.write(self.cars_key(destination), cars - 1)
            booking_number = view.read(self.bookings_key(destination), 0) + 1
            view.write(self.bookings_key(destination), booking_number)
            return {
                "status": "confirmed",
                "booking_number": booking_number,
                "traveller": traveller,
                "flight": f"FL-{destination}-{booking_number:04d}",
                "hotel": f"Hotel {destination} Central",
                "car": f"Car-{destination}-{booking_number:04d}" if need_car else None,
            }

        return logic

    def _tour_logic(self, request: Request) -> Callable[[Any], Any]:
        cities = tuple(request.params["cities"])
        traveller = request.params["traveller"]

        def logic(view: Any) -> Any:
            # Each participant books only the legs it owns; on an
            # unpartitioned store every leg is booked in one transaction.
            # Sold-out is a per-leg user-level result: a leg on another shard
            # may still book (the result value shows which legs confirmed) --
            # run tours against ample inventory when that matters.
            legs = []
            for city in cities:
                if not view.owns(self.seats_key(city)):
                    continue
                seats = view.read(self.seats_key(city), 0)
                if seats <= 0:
                    return {"status": "sold_out", "destination": city, "seats": seats}
                view.write(self.seats_key(city), seats - 1)
                number = view.read(self.bookings_key(city), 0) + 1
                view.write(self.bookings_key(city), number)
                legs.append(f"FL-{city}-{number:04d}")
            return {"status": "confirmed", "traveller": traveller, "legs": legs}

        return logic

    # ------------------------------------------------------------- invariants

    def bookings_made(self, committed: dict[str, Any]) -> int:
        """Number of confirmed bookings in a committed snapshot."""
        if not self.shard_tags:
            return committed.get("bookings:count", 0)
        return sum(committed.get(self.bookings_key(city), 0)
                   for city in self.destinations)

    def seats_left(self, committed: dict[str, Any], destination: str) -> int:
        """Remaining seats to ``destination``."""
        return committed.get(self.seats_key(destination), 0)
